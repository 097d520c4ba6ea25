package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
)

// traceRecords parses a trace file into its records.
func traceRecords(t *testing.T, data string) []map[string]any {
	t.Helper()
	var recs []map[string]any
	if err := json.Unmarshal([]byte(data), &recs); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	return recs
}

// jobSlices returns the cat "job" slices of a trace.
func jobSlices(recs []map[string]any) []map[string]any {
	var out []map[string]any
	for _, r := range recs {
		if r["cat"] == "job" {
			out = append(out, r)
		}
	}
	return out
}

func TestTraceWriterSlices(t *testing.T) {
	var sb strings.Builder
	start := time.Unix(1700000000, 0)
	r := NewRecorder(NewTraceWriter(&sb))
	r.Consume(core.Event{Type: core.EventQueued, Seq: 1, Time: start, Command: "echo one"})
	r.Consume(core.Event{Type: core.EventStarted, Seq: 1, Slot: 2, Time: start})
	r.Consume(core.Event{Type: core.EventFinished, Seq: 1, Slot: 2, Attempt: 1,
		Time: start.Add(150 * time.Millisecond), End: start.Add(150 * time.Millisecond),
		OK: true, Host: "n1", Duration: 100 * time.Millisecond})
	r.Consume(core.Event{Type: core.EventKilled, Seq: 2, Slot: 1, Attempt: 2,
		Time: start.Add(300 * time.Millisecond), ExitCode: -1,
		Duration: 50 * time.Millisecond})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	jobs := jobSlices(traceRecords(t, sb.String()))
	if len(jobs) != 2 {
		t.Fatalf("job slices = %d, want 2", len(jobs))
	}
	first := jobs[0]
	if first["name"] != "echo one" || first["ph"] != "X" {
		t.Fatalf("first slice = %v", first)
	}
	if first["tid"].(float64) != 2 {
		t.Fatalf("tid = %v, want slot lane 2", first["tid"])
	}
	// The slot was taken at start; the process ended 150ms later.
	if ts := first["ts"].(float64); ts != float64(start.UnixMicro()) {
		t.Fatalf("ts = %v µs, want %d", ts, start.UnixMicro())
	}
	if dur := first["dur"].(float64); dur != 150000 {
		t.Fatalf("dur = %v µs, want 150000", dur)
	}
	args1 := first["args"].(map[string]any)
	if args1["host"] != "n1" || args1["killed"] != false {
		t.Fatalf("args = %v", args1)
	}
	args2 := jobs[1]["args"].(map[string]any)
	if args2["killed"] != true || args2["attempts"].(float64) != 2 {
		t.Fatalf("killed slice args = %v", args2)
	}
	if jobs[1]["name"] != "job 2" {
		t.Fatalf("fallback name = %v", jobs[1]["name"])
	}
}

func TestTraceWriterNestsPhases(t *testing.T) {
	t0 := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	s := Span{
		Seq: 1, Slot: 2, OK: true, Host: "n1", Command: "sim 1",
		Queued: t0, Started: t0.Add(time.Millisecond),
		End:       t0.Add(51 * time.Millisecond),
		QueueWait: time.Millisecond,
		Dispatch:  2 * time.Millisecond, ContainerStart: 3 * time.Millisecond,
		Exec: 45 * time.Millisecond, Collect: time.Millisecond,
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if err := tw.Write(s); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	recs := traceRecords(t, buf.String())
	jobs := jobSlices(recs)
	if len(jobs) != 1 {
		t.Fatalf("job slices = %d, want 1", len(jobs))
	}
	job := jobs[0]
	jts, jend := job["ts"].(float64), job["ts"].(float64)+job["dur"].(float64)
	phases := map[string]bool{}
	for _, r := range recs {
		if r["cat"] != "phase" {
			continue
		}
		phases[r["name"].(string)] = true
		ts, end := r["ts"].(float64), r["ts"].(float64)+r["dur"].(float64)
		if ts < jts || end > jend || r["tid"] != job["tid"] {
			t.Errorf("phase %v [%v,%v] not inside job [%v,%v] on its lane", r["name"], ts, end, jts, jend)
		}
	}
	for _, want := range []string{PhaseDispatch, PhaseContainerStart, PhaseExec, PhaseCollect} {
		if !phases[want] {
			t.Errorf("missing phase slice %q in %v", want, phases)
		}
	}
	// Zero phases (stage-in/out) must not produce slices.
	if phases[PhaseStageIn] || phases[PhaseStageOut] {
		t.Error("zero-duration phases emitted")
	}
	// Exec ends at End: 51ms after t0, collect 1ms after that.
	if jend != float64(t0.Add(52*time.Millisecond).UnixMicro()) {
		t.Errorf("job ends at %v, want End+Collect", jend)
	}
}

func TestTraceWriterCutStreamLoads(t *testing.T) {
	// A trace cut off mid-run (no Close) must still be recoverable:
	// each record is complete JSON after its separator.
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	start := time.Unix(1700000000, 0)
	for i := 1; i <= 3; i++ {
		end := start.Add(time.Duration(i) * time.Second)
		tw.Write(Span{Seq: i, Slot: i, OK: true, Started: end.Add(-100 * time.Millisecond),
			End: end, Exec: 100 * time.Millisecond})
	}
	recs := traceRecords(t, sb.String()+"\n]")
	if len(jobSlices(recs)) != 3 {
		t.Fatalf("recovered %d job slices, want 3", len(jobSlices(recs)))
	}
}

func TestTraceWriterEmptyClose(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := traceRecords(t, sb.String()); len(recs) != 0 {
		t.Fatalf("empty trace = %q", sb.String())
	}
	// A write after Close is ignored, not a panic or corruption.
	tw.Write(Span{Seq: 1, Started: time.Unix(0, 1), End: time.Unix(1, 0)})
	if sb.String() != "[]\n" {
		t.Fatalf("post-close write corrupted output: %q", sb.String())
	}
}

func TestTraceWriterTruncatesLongCommands(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	end := time.Unix(1700000000, 0)
	tw.Write(Span{Seq: 1, Slot: 1, Command: strings.Repeat("x", 200), OK: true,
		End: end, Exec: time.Millisecond})
	tw.Write(Span{Seq: 2, Slot: 1, OK: true, End: end.Add(time.Millisecond), Exec: time.Millisecond})
	tw.Close()
	jobs := jobSlices(traceRecords(t, sb.String()))
	name := jobs[0]["name"].(string)
	if len(name) != 80 || !strings.HasSuffix(name, "...") {
		t.Fatalf("name length = %d (%q...)", len(name), name[:10])
	}
	if jobs[1]["name"] != "job 2" {
		t.Fatalf("fallback name = %v", jobs[1]["name"])
	}
}

// TestDumpTrace renders a recorder dump and checks the output is a
// loadable Chrome trace: job slices for finished jobs, an open slice
// for the job still running at dump time, counter series for
// snapshots, and an instant for the anomaly.
func TestDumpTrace(t *testing.T) {
	r := flight.New(flight.Options{EventBuf: 256, Program: "traceprog"})
	now := time.Now()
	ev := func(seq int, typ core.EventType) core.Event {
		e := core.Event{Type: typ, Seq: seq, Slot: 1 + seq%4, Time: now.Add(time.Duration(seq) * time.Millisecond), Command: "work --n"}
		if typ == core.EventFinished {
			e.OK = true
			e.Duration = 5 * time.Millisecond
		}
		return e
	}
	for i := 1; i <= 5; i++ {
		r.RecordEvent(ev(i, core.EventQueued))
		r.RecordEvent(ev(i, core.EventStarted))
		if i < 5 { // job 5 stays running at dump time
			r.RecordEvent(ev(i, core.EventFinished))
		}
	}
	r.Diag("dispatch-p99", "p99 2ms exceeds ceiling 1ms")
	r.Tick()
	d := r.Dump()

	var buf bytes.Buffer
	if err := WriteDumpTrace(&buf, d); err != nil {
		t.Fatal(err)
	}
	recs := traceRecords(t, buf.String())
	counts := map[string]int{}
	open := 0
	for _, e := range recs {
		counts[e["ph"].(string)]++
		if args, ok := e["args"].(map[string]any); ok && args["open"] == true {
			open++
		}
	}
	if jobs := jobSlices(recs); len(jobs) != 5 { // 4 finished + 1 open
		t.Fatalf("job slices = %d, want 5 (records %v)", len(jobs), counts)
	}
	if open != 1 {
		t.Fatalf("open-at-dump slices = %d, want 1", open)
	}
	if counts["C"] == 0 {
		t.Fatalf("no counter records for snapshots: %v", counts)
	}
	if counts["i"] != 1 {
		t.Fatalf("instant records = %d, want 1 anomaly flag", counts["i"])
	}
	if counts["M"] < 2 {
		t.Fatalf("metadata records = %d, want >= 2", counts["M"])
	}
}

// TestDumpTraceEmpty checks an empty dump renders an empty, valid
// array rather than erroring.
func TestDumpTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDumpTrace(&buf, &flight.Dump{Version: flight.DumpVersion}); err != nil {
		t.Fatal(err)
	}
	if recs := traceRecords(t, buf.String()); len(recs) != 0 {
		t.Fatalf("empty dump trace = %q, want []", buf.String())
	}
}
