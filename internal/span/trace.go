package span

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/flight"
)

// Trace process ids: job slices, and the flight recorder's counters and
// anomaly marks under them.
const (
	jobPID  = 1
	diagPID = 2
)

// TraceWriter is the one Chrome/Perfetto trace writer (JSON array
// format, load in ui.perfetto.dev or chrome://tracing). As a Sink it
// renders each Span as a job slice (cat "job") on its slot lane, named
// by the job's command, with the attributed phases nested inside as
// cat "phase" slices. WriteDumpTrace adds flight-recorder marks.
//
// Records stream as they arrive: "[", then ","-separated records, then
// "]" on Close, so a file cut mid-run loads once "]" is appended. ts is
// whole microseconds since the Unix epoch, so no writer tracks a time
// origin and traces of the same run line up. An Incomplete span renders
// as an open job slice (args.open) running to the last time the writer
// saw.
//
// A TraceWriter is not safe for concurrent use; a Recorder serializes
// the calls it makes.
type TraceWriter struct {
	w      io.Writer
	buf    []byte
	last   time.Time
	wrote  bool
	closed bool
	err    error
}

// NewTraceWriter streams trace records to w.
func NewTraceWriter(w io.Writer) *TraceWriter { return &TraceWriter{w: w} }

// traceSlice is a complete ("X") record.
type traceSlice struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	Ts   int64    `json:"ts"`
	Dur  int64    `json:"dur"`
	PID  int      `json:"pid"`
	TID  int      `json:"tid"`
	Args *jobArgs `json:"args,omitempty"`
}

type jobArgs struct {
	Seq      int    `json:"seq"`
	Host     string `json:"host,omitempty"`
	OK       bool   `json:"ok"`
	Exit     int    `json:"exitval"`
	Attempts int    `json:"attempts,omitempty"`
	Killed   bool   `json:"killed"`
	Open     bool   `json:"open,omitempty"`
}

// traceMark is a counter ("C"), instant ("i") or metadata ("M") record.
type traceMark struct {
	Name  string `json:"name"`
	Ph    string `json:"ph"`
	Scope string `json:"s,omitempty"`
	Ts    int64  `json:"ts,omitempty"`
	PID   int    `json:"pid"`
	TID   int    `json:"tid,omitempty"`
	Args  any    `json:"args"`
}

// Write renders one span. A span that never held a slot (queued, then
// interrupted) has no lane and renders nothing.
func (t *TraceWriter) Write(s Span) error {
	args := &jobArgs{Seq: s.Seq, Host: s.Host, OK: s.OK, Exit: s.Exit,
		Attempts: s.Attempt, Killed: s.Killed}
	name := s.Command
	if name == "" {
		name = fmt.Sprintf("job %d", s.Seq)
	} else if len(name) > 80 {
		name = name[:77] + "..."
	}
	if s.Incomplete || s.End.IsZero() {
		if s.Started.IsZero() {
			return t.err
		}
		args.Open = true
		t.slice(name, "job", s.Started, t.last, s.Slot, args)
		return t.err
	}
	// Phases run back to back: dispatch ends where the final attempt's
	// in-slot phases begin, and those end at End, where collect starts.
	at := s.ExecStart().Add(-s.Dispatch)
	start := at
	if !s.Started.IsZero() && s.Started.Before(start) {
		start = s.Started
	}
	t.slice(name, "job", start, s.End.Add(s.Collect), s.Slot, args)
	for _, ph := range [...]struct {
		name string
		d    time.Duration
	}{
		{PhaseDispatch, s.Dispatch},
		{PhaseContainerStart, s.ContainerStart},
		{PhaseStageIn, s.StageIn},
		{PhaseExec, s.Exec},
		{PhaseStageOut, s.StageOut},
		{PhaseCollect, s.Collect},
	} {
		if ph.d > 0 {
			t.slice(ph.name, "phase", at, at.Add(ph.d), s.Slot, nil)
			at = at.Add(ph.d)
		}
	}
	return t.err
}

// counter adds one sample of a named counter series (a flight
// snapshot); an empty sample is skipped.
func (t *TraceWriter) counter(name string, at time.Time, vals map[string]float64) {
	if len(vals) > 0 {
		t.put(traceMark{Name: name, Ph: "C", Ts: t.seen(at), PID: diagPID, Args: vals})
	}
}

// instant adds a global instant mark (a flight anomaly), drawn across
// every lane.
func (t *TraceWriter) instant(name string, at time.Time, detail string) {
	t.put(traceMark{Name: name, Ph: "i", Scope: "g", Ts: t.seen(at), PID: diagPID, TID: 1,
		Args: map[string]string{"detail": detail}})
}

// processName labels a trace process.
func (t *TraceWriter) processName(pid int, name string) {
	t.put(traceMark{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]string{"name": name}})
}

// Close terminates the array. Writes after Close are ignored.
func (t *TraceWriter) Close() error {
	if !t.closed && t.err == nil {
		tail := "\n]\n"
		if !t.wrote {
			tail = "[]\n"
		}
		_, t.err = io.WriteString(t.w, tail)
	}
	t.closed = true
	return t.err
}

// slice writes one X record; an end before start gives a zero-length
// slice.
func (t *TraceWriter) slice(name, cat string, start, end time.Time, lane int, args *jobArgs) {
	ts := t.seen(start)
	t.put(traceSlice{Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: max(t.seen(end)-ts, 0),
		PID: jobPID, TID: lane, Args: args})
}

// seen advances the writer's clock to at and returns at in µs.
func (t *TraceWriter) seen(at time.Time) int64 {
	if at.After(t.last) {
		t.last = at
	}
	return at.UnixMicro()
}

func (t *TraceWriter) put(rec any) {
	if t.closed || t.err != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.err = err
		return
	}
	sep := ",\n"
	if !t.wrote {
		sep = "[\n"
	}
	t.buf = append(append(t.buf[:0], sep...), b...)
	_, t.err = t.w.Write(t.buf)
	t.wrote = true
}

// WriteDumpTrace renders a flight-recorder dump (`gopar debug -trace`):
// its lifecycle events replay through a Recorder into job slices, a job
// running at dump time becomes an open slice, snapshots become counter
// series and anomalies instant marks.
func WriteDumpTrace(w io.Writer, d *flight.Dump) error {
	tw := NewTraceWriter(w)
	if len(d.Records) > 0 {
		tw.processName(jobPID, fmt.Sprintf("%s jobs (pid %d)", cmp.Or(d.Program, "flight"), d.PID))
		tw.processName(diagPID, "flight diagnostics")
	}
	rec := NewRecorder(tw)
	for _, r := range d.Records {
		switch r.Kind {
		case flight.KindEvent.String():
			if ev, ok := r.CoreEvent(); ok {
				rec.Consume(ev)
			}
		case flight.KindSnapshot.String():
			tw.counter(r.Source, r.Time, r.Stats)
		case flight.KindDiag.String():
			tw.instant(r.Source, r.Time, r.Detail)
		}
	}
	return rec.Close()
}
