package span

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

var t0 = time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)

// feedJob pushes a full queued→started→finished event sequence.
func feedJob(r *Recorder, seq, slot int) {
	r.Consume(core.Event{Type: core.EventQueued, Seq: seq, Time: t0,
		Command: "work " + strconv.Itoa(seq), Render: 50 * time.Microsecond})
	r.Consume(core.Event{Type: core.EventStarted, Seq: seq, Slot: slot,
		Attempt: 1, Time: t0.Add(10 * time.Millisecond)})
	end := t0.Add(120 * time.Millisecond)
	r.Consume(core.Event{Type: core.EventFinished, Seq: seq, Slot: slot,
		Attempt: 1, OK: true, Host: "nodeA",
		Time:           end.Add(3 * time.Millisecond), // collector saw it 3ms later
		End:            end,
		Duration:       100 * time.Millisecond,
		DispatchDelay:  2 * time.Millisecond,
		WorkerDispatch: 500 * time.Microsecond,
		ContainerStart: 5 * time.Millisecond,
		StageIn:        7 * time.Millisecond,
		StageOut:       3 * time.Millisecond,
	})
}

func TestRecorderAssemblesSpan(t *testing.T) {
	var spans Spans
	r := NewRecorder(&spans)
	feedJob(r, 1, 4)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Incomplete {
		t.Error("span marked incomplete")
	}
	if s.Seq != 1 || s.Slot != 4 || !s.OK || s.Host != "nodeA" || s.Command != "work 1" {
		t.Errorf("identity fields wrong: %+v", s)
	}
	if s.Render != 50*time.Microsecond {
		t.Errorf("Render = %v", s.Render)
	}
	if s.QueueWait != 10*time.Millisecond {
		t.Errorf("QueueWait = %v", s.QueueWait)
	}
	if s.Dispatch != 2*time.Millisecond || s.WorkerDispatch != 500*time.Microsecond {
		t.Errorf("Dispatch = %v WorkerDispatch = %v", s.Dispatch, s.WorkerDispatch)
	}
	// Exec = Duration - container - stages = 100 - 5 - 7 - 3 = 85ms.
	if s.Exec != 85*time.Millisecond {
		t.Errorf("Exec = %v, want 85ms", s.Exec)
	}
	if s.Collect != 3*time.Millisecond {
		t.Errorf("Collect = %v, want 3ms", s.Collect)
	}
	// Overhead excludes WorkerDispatch (sub-segment) and staging.
	want := 50*time.Microsecond + 2*time.Millisecond + 5*time.Millisecond + 3*time.Millisecond
	if s.Overhead() != want {
		t.Errorf("Overhead = %v, want %v", s.Overhead(), want)
	}
}

func TestRecorderCloseFlushesIncomplete(t *testing.T) {
	var buf bytes.Buffer
	var kept Spans
	r := NewRecorder(&kept, NewJSONLWriter(&buf))
	feedJob(r, 1, 1)
	// Job 2 queued and started but never finished (interrupted run).
	r.Consume(core.Event{Type: core.EventQueued, Seq: 2, Time: t0})
	r.Consume(core.Event{Type: core.EventStarted, Seq: 2, Slot: 2, Attempt: 1,
		Time: t0.Add(time.Millisecond)})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Incomplete || !spans[1].Incomplete {
		t.Errorf("incomplete flags wrong: %v %v", spans[0].Incomplete, spans[1].Incomplete)
	}
	if spans[1].Seq != 2 || spans[1].Slot != 2 {
		t.Errorf("flushed span identity wrong: %+v", spans[1])
	}
	// Consume after Close is ignored.
	feedJob(r, 3, 3)
	if got := len(kept); got != 2 {
		t.Errorf("Consume after Close changed span count: %d", got)
	}
}

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var kept Spans
	r := NewRecorder(&kept, NewJSONLWriter(&buf))
	feedJob(r, 7, 2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 {
		t.Fatalf("got %d spans", len(parsed))
	}
	orig, got := kept[0], parsed[0]
	if got.Seq != orig.Seq || got.Slot != orig.Slot || got.Host != orig.Host ||
		got.OK != orig.OK || got.Attempt != orig.Attempt || got.Command != "work 7" {
		t.Errorf("identity mismatch:\n got %+v\nwant %+v", got, orig)
	}
	for _, pair := range []struct {
		name      string
		got, want time.Duration
	}{
		{"Render", got.Render, orig.Render},
		{"QueueWait", got.QueueWait, orig.QueueWait},
		{"Dispatch", got.Dispatch, orig.Dispatch},
		{"WorkerDispatch", got.WorkerDispatch, orig.WorkerDispatch},
		{"ContainerStart", got.ContainerStart, orig.ContainerStart},
		{"StageIn", got.StageIn, orig.StageIn},
		{"Exec", got.Exec, orig.Exec},
		{"StageOut", got.StageOut, orig.StageOut},
		{"Collect", got.Collect, orig.Collect},
	} {
		if diff := pair.got - pair.want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("%s: got %v want %v", pair.name, pair.got, pair.want)
		}
	}
	if !got.Queued.Equal(orig.Queued) || !got.End.Equal(orig.End) {
		t.Errorf("timestamps mismatch: %v/%v vs %v/%v", got.Queued, got.End, orig.Queued, orig.End)
	}
}

func TestParseToleratesTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(NewJSONLWriter(&buf))
	feedJob(r, 1, 1)
	feedJob(r, 2, 1)
	full := buf.String()
	// Chop the last line mid-object, as a SIGKILL mid-write would.
	cut := full[:len(full)-20]
	spans, err := Parse(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail should parse: %v", err)
	}
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	// But a corrupt line in the middle is a real error.
	corrupt := "{bogus\n" + full
	if _, err := Parse(strings.NewReader(corrupt)); err == nil {
		t.Error("mid-stream corruption should error")
	}
}

func TestFromJoblog(t *testing.T) {
	entries := []core.JoblogEntry{
		{Seq: 1, Host: ":", Start: 100.5, Runtime: 2.0, Exitval: 0},
		{Seq: 2, Host: "nodeB", Start: 101.0, Runtime: 1.5, Exitval: 3},
	}
	spans := FromJoblog(entries)
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if !spans[0].OK || spans[1].OK {
		t.Errorf("OK flags wrong")
	}
	if spans[0].Exec != 2*time.Second {
		t.Errorf("Exec = %v", spans[0].Exec)
	}
	if got := spans[1].End.Sub(spans[1].Started); got != 1500*time.Millisecond {
		t.Errorf("End-Started = %v", got)
	}
}

func TestAnalyzeDecomposition(t *testing.T) {
	mk := func(seq, slot int, start time.Time, exec time.Duration) Span {
		disp := 2 * time.Millisecond
		return Span{
			Seq: seq, Slot: slot, Attempt: 1, OK: true,
			Queued: start, Started: start.Add(time.Millisecond),
			End:       start.Add(time.Millisecond + disp + exec),
			QueueWait: time.Millisecond, Dispatch: disp, Exec: exec,
		}
	}
	spans := []Span{
		mk(1, 1, t0, 100*time.Millisecond),
		mk(2, 2, t0, 200*time.Millisecond),
		mk(3, 1, t0.Add(110*time.Millisecond), 100*time.Millisecond),
		{Seq: 4, Incomplete: true, Queued: t0},
	}
	a := Analyze(spans)
	if a.Jobs != 4 || a.Incomplete != 1 || a.Failed != 0 {
		t.Errorf("counts wrong: %+v", a)
	}
	if a.Slots != 2 {
		t.Errorf("Slots = %d", a.Slots)
	}
	if math.Abs(a.ExecTotalS-0.4) > 1e-9 {
		t.Errorf("ExecTotalS = %v", a.ExecTotalS)
	}
	// Overhead per completed job = 2ms dispatch.
	if math.Abs(a.OverheadTotalS-0.006) > 1e-9 {
		t.Errorf("OverheadTotalS = %v", a.OverheadTotalS)
	}
	if math.Abs(a.DispatchRate-500) > 1e-6 {
		t.Errorf("DispatchRate = %v, want 500", a.DispatchRate)
	}
	if math.Abs(a.OverheadPct-0.006/0.406) > 1e-9 {
		t.Errorf("OverheadPct = %v", a.OverheadPct)
	}
	// Critical path ends with span 3 in slot 1: two jobs plus the idle
	// gap between them (span1 ends at +103ms, span3 starts at +111ms).
	cp := a.CriticalPath
	if cp.Slot != 1 || cp.Jobs != 2 {
		t.Errorf("critical path = %+v", cp)
	}
	if math.Abs(cp.IdleS-0.008) > 1e-9 {
		t.Errorf("IdleS = %v, want 0.008", cp.IdleS)
	}
	if len(a.Utilization) == 0 {
		t.Error("no utilization timeline")
	}
	// Phase digests must include dispatch and exec.
	var sawDispatch, sawExec bool
	for _, p := range a.Phases {
		switch p.Phase {
		case PhaseDispatch:
			sawDispatch = p.Count == 3
		case PhaseExec:
			sawExec = p.Count == 3
		}
	}
	if !sawDispatch || !sawExec {
		t.Errorf("phase digests missing: %+v", a.Phases)
	}
}

// TestSimFrontierDispatchRate is the paper-headline acceptance check:
// a single simulated Frontier-profile instance must dispatch at ~470
// procs/s (Fig 3).
func TestSimFrontierDispatchRate(t *testing.T) {
	spans, err := RunSim(SimConfig{Seed: 1, Tasks: 2000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(spans)
	if a.Jobs != 2000 || a.Failed != 0 || a.Incomplete != 0 {
		t.Fatalf("unexpected counts: %+v", a)
	}
	if a.DispatchRate < 470*0.95 || a.DispatchRate > 470*1.05 {
		t.Errorf("DispatchRate = %.1f procs/s, want ~470 (±5%%)", a.DispatchRate)
	}
}

// TestSimShifterOverheadPct reproduces the paper's ~19 % Shifter
// container-startup share of per-task launch overhead.
func TestSimShifterOverheadPct(t *testing.T) {
	spans, err := RunSim(SimConfig{Seed: 2, Tasks: 2000, Runtime: "shifter"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(spans)
	if a.ContainerPct < 0.17 || a.ContainerPct > 0.21 {
		t.Errorf("ContainerPct = %.3f, want ~0.19", a.ContainerPct)
	}
}

// TestSimStagePhases checks staging config flows through to spans.
func TestSimStagePhases(t *testing.T) {
	spans, err := RunSim(SimConfig{
		Seed: 3, Tasks: 50, TaskDur: 10 * time.Millisecond,
		StageIn: 4 * time.Millisecond, StageOut: 2 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spans[:5] {
		if s.StageIn != 4*time.Millisecond || s.StageOut != 2*time.Millisecond {
			t.Errorf("seq %d stages = %v/%v", s.Seq, s.StageIn, s.StageOut)
		}
		if s.Exec < 9*time.Millisecond || s.Exec > 11*time.Millisecond {
			t.Errorf("seq %d Exec = %v, want ~10ms", s.Seq, s.Exec)
		}
	}
}

// TestSimDeterministic: same seed, same spans (wire-identical).
func TestSimDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := RunSim(SimConfig{Seed: 7, Tasks: 100}, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSim(SimConfig{Seed: 7, Tasks: 100}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different span streams")
	}
}
