package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// DumpVersion is the dump wire-format version.
const DumpVersion = 1

// EventRecord is the wire shape of one retained lifecycle event.
type EventRecord struct {
	Type       string  `json:"type"`
	Seq        int     `json:"seq"`
	Slot       int     `json:"slot,omitempty"`
	Attempt    int     `json:"attempt,omitempty"`
	OK         bool    `json:"ok,omitempty"`
	Exit       int     `json:"exit,omitempty"`
	Host       string  `json:"host,omitempty"`
	Command    string  `json:"command,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	DispatchUS float64 `json:"dispatch_us,omitempty"`
}

// CoreEvent turns an event record back into the lifecycle event it was
// copied from, so a dump can be replayed through the consumers of the
// live stream. Fields the dump does not keep (End, the phase marks)
// stay zero; ok is false for a record that holds no event or an
// event type this build does not know.
func (r Record) CoreEvent() (ev core.Event, ok bool) {
	e := r.Event
	if e == nil {
		return ev, false
	}
	for t := core.EventQueued; t <= core.EventKilled; t++ {
		if t.String() == e.Type {
			ev.Type, ok = t, true
		}
	}
	ev.Seq, ev.Slot, ev.Attempt, ev.Time = e.Seq, e.Slot, e.Attempt, r.Time
	ev.Command, ev.OK, ev.ExitCode, ev.Host = e.Command, e.OK, e.Exit, e.Host
	ev.Duration = time.Duration(e.DurationMS * float64(time.Millisecond))
	ev.DispatchDelay = time.Duration(e.DispatchUS * float64(time.Microsecond))
	return ev, ok
}

// Record is the wire shape of one retained ring record.
type Record struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind string    `json:"kind"` // event | snapshot | anomaly

	Event *EventRecord `json:"event,omitempty"`

	// Snapshot/anomaly fields.
	Source string             `json:"source,omitempty"`
	Detail string             `json:"detail,omitempty"`
	Stats  map[string]float64 `json:"stats,omitempty"`
}

// Dump is a point-in-time copy of everything the recorder retains,
// plus process identity for post-mortem context.
type Dump struct {
	Version   int       `json:"version"`
	Program   string    `json:"program,omitempty"`
	PID       int       `json:"pid"`
	GoVersion string    `json:"go_version"`
	Hostname  string    `json:"hostname,omitempty"`
	Start     time.Time `json:"start"`
	Time      time.Time `json:"time"`

	Events     int64 `json:"events"`      // total events recorded
	EventsLost int64 `json:"events_lost"` // overwritten before this dump
	Anomalies  int64 `json:"anomalies"`
	Overflow   int64 `json:"tracked_jobs_overflow,omitempty"`

	Depth    int64 `json:"queue_depth"`
	Running  int64 `json:"running"`
	Finished int64 `json:"finished"`
	Killed   int64 `json:"killed"`

	Records []Record `json:"records"`
}

// Dump snapshots the rings: each shard is copied under its lock, the
// copies are merged by global sequence, and the result carries the
// live gauges. Safe to call from any goroutine at any time; in-flight
// jobs are not disturbed (recording proceeds on other shards while
// one is being copied).
//
// A fresh snapshot pass runs first so the dump always ends with the
// current state of every source, even if the periodic sampler has not
// ticked since a component registered.
func (r *Recorder) Dump() *Dump {
	r.Tick()
	d := &Dump{
		Version:   DumpVersion,
		Program:   r.opt.Program,
		PID:       os.Getpid(),
		GoVersion: runtime.Version(),
		Start:     r.start,
		Time:      time.Now(),
		Anomalies: r.anomalies.Load(),
		Overflow:  r.openOverflow.Load(),
	}
	if h, err := os.Hostname(); err == nil {
		d.Hostname = h
	}
	d.Depth, d.Running, d.Finished, d.Killed = r.gauges()

	var evs []eventRec
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := sh.n
		have := n
		if have > uint64(len(sh.ring)) {
			have = uint64(len(sh.ring))
			d.EventsLost += int64(n - have)
		}
		for j := uint64(0); j < have; j++ {
			evs = append(evs, sh.ring[(n-have+j)&uint64(len(sh.ring)-1)])
		}
		sh.mu.Unlock()
		d.Events += int64(n)
	}

	var ctrls []ctrlRec
	r.ctrlMu.Lock()
	n := r.ctrlN
	have := n
	if have > uint64(len(r.ctrl)) {
		have = uint64(len(r.ctrl))
	}
	for j := uint64(0); j < have; j++ {
		ctrls = append(ctrls, r.ctrl[(n-have+j)&uint64(len(r.ctrl)-1)])
	}
	r.ctrlMu.Unlock()

	d.Records = make([]Record, 0, len(evs)+len(ctrls))
	for _, e := range evs {
		er := &EventRecord{
			Type:    e.ev.Type.String(),
			Seq:     e.ev.Seq,
			Slot:    e.ev.Slot,
			Attempt: e.ev.Attempt,
			OK:      e.ev.OK,
			Exit:    e.ev.ExitCode,
			Host:    e.ev.Host,
			Command: e.ev.Command,
		}
		if e.ev.Duration > 0 {
			er.DurationMS = float64(e.ev.Duration.Nanoseconds()) / 1e6
		}
		if e.ev.DispatchDelay > 0 {
			er.DispatchUS = float64(e.ev.DispatchDelay.Nanoseconds()) / 1e3
		}
		d.Records = append(d.Records, Record{
			Seq: e.seq, Time: e.ev.Time, Kind: KindEvent.String(), Event: er,
		})
	}
	for _, c := range ctrls {
		rec := Record{
			Seq:    c.seq,
			Time:   time.Unix(0, c.t),
			Kind:   c.kind.String(),
			Source: c.name,
			Detail: c.detail,
		}
		if c.nstats > 0 {
			rec.Stats = make(map[string]float64, c.nstats)
			for _, st := range c.stats[:c.nstats] {
				rec.Stats[st.Name] = st.V
			}
		}
		d.Records = append(d.Records, rec)
	}
	sort.Slice(d.Records, func(i, j int) bool { return d.Records[i].Seq < d.Records[j].Seq })
	return d
}

// WriteJSON writes the dump as indented JSON.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ReadDump parses a dump written by WriteJSON.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("flight: parsing dump: %w", err)
	}
	if d.Version != DumpVersion {
		return nil, fmt.Errorf("flight: unsupported dump version %d (want %d)", d.Version, DumpVersion)
	}
	return &d, nil
}

// WriteTable renders the dump as a human-readable timeline: a header
// block with process identity and gauges, then one line per record,
// oldest first, timestamped relative to the dump instant.
func (d *Dump) WriteTable(w io.Writer) error {
	fmt.Fprintf(w, "flight dump: %s pid %d (%s, %s) taken %s\n",
		orUnknown(d.Program), d.PID, d.GoVersion, orUnknown(d.Hostname),
		d.Time.Format(time.RFC3339))
	fmt.Fprintf(w, "recording since %s (%v); %d events recorded, %d overwritten, %d anomalies\n",
		d.Start.Format(time.RFC3339), d.Time.Sub(d.Start).Round(time.Second),
		d.Events, d.EventsLost, d.Anomalies)
	fmt.Fprintf(w, "gauges: depth=%d running=%d finished=%d killed=%d\n\n",
		d.Depth, d.Running, d.Finished, d.Killed)
	fmt.Fprintf(w, "%12s  %-8s  %s\n", "T-OFFSET", "KIND", "DETAIL")
	for _, rec := range d.Records {
		off := d.Time.Sub(rec.Time).Round(time.Millisecond)
		fmt.Fprintf(w, "%12s  %-8s  %s\n", "-"+off.String(), rec.Kind, recordDetail(rec))
	}
	_, err := fmt.Fprintln(w)
	return err
}

func orUnknown(s string) string {
	if s == "" {
		return "?"
	}
	return s
}

// recordDetail formats one record's payload for the table view.
func recordDetail(rec Record) string {
	switch rec.Kind {
	case "event":
		e := rec.Event
		if e == nil {
			return "(malformed event record)"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%-8s seq=%d", e.Type, e.Seq)
		if e.Slot > 0 {
			fmt.Fprintf(&b, " slot=%d", e.Slot)
		}
		if e.Type == "finished" || e.Type == "killed" {
			fmt.Fprintf(&b, " ok=%v exit=%d", e.OK, e.Exit)
			if e.DurationMS > 0 {
				fmt.Fprintf(&b, " dur=%.1fms", e.DurationMS)
			}
			if e.DispatchUS > 0 {
				fmt.Fprintf(&b, " dispatch=%.0fus", e.DispatchUS)
			}
		}
		if e.Host != "" {
			fmt.Fprintf(&b, " host=%s", e.Host)
		}
		if e.Command != "" {
			cmd := e.Command
			if len(cmd) > 60 {
				cmd = cmd[:57] + "..."
			}
			fmt.Fprintf(&b, " cmd=%q", cmd)
		}
		return b.String()
	case "snapshot":
		names := make([]string, 0, len(rec.Stats))
		for k := range rec.Stats {
			names = append(names, k)
		}
		sort.Strings(names)
		var b strings.Builder
		fmt.Fprintf(&b, "%-8s", rec.Source)
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%g", k, rec.Stats[k])
		}
		return b.String()
	case "anomaly":
		return fmt.Sprintf("%s: %s", rec.Source, rec.Detail)
	default:
		return rec.Detail
	}
}

// DumpToFile writes a dump into dir as flight-<pid>-<unixtime>.json
// and returns the path. The write goes through a temp file + rename
// so a reader never sees a torn dump.
func DumpToFile(r *Recorder, dir string) (string, error) {
	d := r.Dump()
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%d-%d.json", d.PID, d.Time.UnixNano()))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	if err := d.WriteJSON(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}
