package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
)

// wireSpan is the JSONL representation of a Span. Timestamps are
// RFC3339Nano; durations are seconds (float), matching the --events
// stream's dur_s/dispatch_s convention. Zero phases are omitted so a
// local no-container run stays compact.
type wireSpan struct {
	Seq        int     `json:"seq"`
	Slot       int     `json:"slot,omitempty"`
	Attempt    int     `json:"attempt,omitempty"`
	Host       string  `json:"host,omitempty"`
	Command    string  `json:"cmd,omitempty"`
	OK         bool    `json:"ok"`
	Exit       int     `json:"exit,omitempty"`
	Killed     bool    `json:"killed,omitempty"`
	Incomplete bool    `json:"incomplete,omitempty"`
	Queued     string  `json:"queued,omitempty"`
	Started    string  `json:"started,omitempty"`
	End        string  `json:"end,omitempty"`
	Render     float64 `json:"render_s,omitempty"`
	QueueWait  float64 `json:"queue_wait_s,omitempty"`
	Dispatch   float64 `json:"dispatch_s,omitempty"`
	WorkerDisp float64 `json:"worker_dispatch_s,omitempty"`
	Container  float64 `json:"container_s,omitempty"`
	StageIn    float64 `json:"stagein_s,omitempty"`
	Exec       float64 `json:"exec_s,omitempty"`
	StageOut   float64 `json:"stageout_s,omitempty"`
	Collect    float64 `json:"collect_s,omitempty"`
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}

func parseTime(s string) time.Time {
	if s == "" {
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

func secs(d time.Duration) float64 { return d.Seconds() }
func dur(s float64) time.Duration  { return time.Duration(s * float64(time.Second)) }

func wireFromSpan(s Span) wireSpan {
	return wireSpan{
		Seq: s.Seq, Slot: s.Slot, Attempt: s.Attempt, Host: s.Host, Command: s.Command,
		OK: s.OK, Exit: s.Exit, Killed: s.Killed, Incomplete: s.Incomplete,
		Queued: fmtTime(s.Queued), Started: fmtTime(s.Started), End: fmtTime(s.End),
		Render: secs(s.Render), QueueWait: secs(s.QueueWait),
		Dispatch: secs(s.Dispatch), WorkerDisp: secs(s.WorkerDispatch),
		Container: secs(s.ContainerStart), StageIn: secs(s.StageIn),
		Exec: secs(s.Exec), StageOut: secs(s.StageOut), Collect: secs(s.Collect),
	}
}

func (w wireSpan) span() Span {
	return Span{
		Seq: w.Seq, Slot: w.Slot, Attempt: w.Attempt, Host: w.Host, Command: w.Command,
		OK: w.OK, Exit: w.Exit, Killed: w.Killed, Incomplete: w.Incomplete,
		Queued: parseTime(w.Queued), Started: parseTime(w.Started), End: parseTime(w.End),
		Render: dur(w.Render), QueueWait: dur(w.QueueWait),
		Dispatch: dur(w.Dispatch), WorkerDispatch: dur(w.WorkerDisp),
		ContainerStart: dur(w.Container), StageIn: dur(w.StageIn),
		Exec: dur(w.Exec), StageOut: dur(w.StageOut), Collect: dur(w.Collect),
	}
}

// JSONLWriter is the Sink behind --spans: one wire-format JSON object
// per line.
type JSONLWriter struct {
	enc *json.Encoder
	err error
}

// NewJSONLWriter streams spans to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{enc: json.NewEncoder(w)} }

// Write appends one span line.
func (j *JSONLWriter) Write(s Span) error {
	if j.err == nil {
		j.err = j.enc.Encode(wireFromSpan(s))
	}
	return j.err
}

// Close reports the first write error; the caller owns the writer.
func (j *JSONLWriter) Close() error { return j.err }

// Parse reads a span JSONL stream. A malformed final line (a run killed
// mid-write) is tolerated; a malformed line elsewhere is an error.
func Parse(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var spans []Span
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if pendingErr != nil {
			// The bad line was not the last one: real corruption.
			return nil, pendingErr
		}
		var w wireSpan
		if err := json.Unmarshal(b, &w); err != nil {
			pendingErr = fmt.Errorf("span line %d: %w", line, err)
			continue
		}
		spans = append(spans, w.span())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// quantum is the joblog timestamp resolution (µs in our logs, coarser
// in GNU Parallel's). A slot freed less than one quantum after the next
// start counts as free: engines hand a slot over in well under a
// microsecond, and float64 round-trips of quantized timestamps can
// otherwise invent a sub-quantum overlap.
const quantum = time.Microsecond

// FromJoblog converts joblog entries into coarse spans, in start order,
// for runs without --spans: exec time and host survive, phase
// attribution is lost. The joblog records no slot, so each job takes
// the lowest-numbered slot free at its start, which makes the slot
// count the run's peak concurrency.
func FromJoblog(entries []core.JoblogEntry) []Span {
	spans := make([]Span, 0, len(entries))
	for _, e := range entries {
		start := time.Unix(0, int64(e.Start*float64(time.Second)))
		exec := time.Duration(e.Runtime * float64(time.Second))
		spans = append(spans, Span{
			Seq:     e.Seq,
			Host:    e.Host,
			Command: e.Command,
			OK:      e.Exitval == 0 && e.Signal == 0,
			Exit:    e.Exitval,
			Attempt: 1,
			Queued:  start,
			Started: start,
			End:     start.Add(exec),
			Exec:    exec,
		})
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Started.Before(spans[j].Started) })
	var busyUntil []time.Time // busyUntil[k] is when slot k+1 frees
	for i := range spans {
		s := &spans[i]
		k := 0
		for k < len(busyUntil) && busyUntil[k].Sub(s.Started) > quantum {
			k++
		}
		if k == len(busyUntil) {
			busyUntil = append(busyUntil, time.Time{})
		}
		busyUntil[k] = s.End
		s.Slot = k + 1
	}
	return spans
}
