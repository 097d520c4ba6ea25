package span

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/args"
	"repro/internal/core"
)

func entry(seq int, start, runtime float64, exit int) core.JoblogEntry {
	return core.JoblogEntry{Seq: seq, Start: start, Runtime: runtime, Exitval: exit}
}

func TestJoblogProfileBasic(t *testing.T) {
	// Two jobs overlap [0,2) and [1,3): 2 slots, makespan 3, exec 4.
	a := Analyze(FromJoblog([]core.JoblogEntry{
		entry(1, 100.0, 2.0, 0),
		entry(2, 101.0, 2.0, 0),
	}))
	if a.Jobs != 2 || a.Failed != 0 {
		t.Fatalf("jobs/failed = %d/%d", a.Jobs, a.Failed)
	}
	if math.Abs(a.MakespanS-3) > 1e-6 || math.Abs(a.ExecTotalS-4) > 1e-6 {
		t.Fatalf("makespan/exec = %v/%v", a.MakespanS, a.ExecTotalS)
	}
	if a.Slots != 2 {
		t.Fatalf("slots = %d, want peak concurrency 2", a.Slots)
	}
	if ep := a.EffectiveParallelism; ep < 1.32 || ep > 1.35 {
		t.Fatalf("effective parallelism = %v, want 4/3", ep)
	}
}

func TestJoblogProfileSerial(t *testing.T) {
	a := Analyze(FromJoblog([]core.JoblogEntry{
		entry(1, 0, 1, 0), entry(2, 1, 1, 0), entry(3, 2, 1, 9),
	}))
	if a.Slots != 1 || a.Failed != 1 {
		t.Fatalf("slots/failed = %d/%d", a.Slots, a.Failed)
	}
	var busy float64
	for _, u := range a.Utilization {
		busy += u.Busy / float64(len(a.Utilization))
	}
	if busy < 0.99 || busy > 1.01 {
		t.Fatalf("utilization = %v, want 1.0", busy)
	}
	if math.Abs(a.MeanLaunchGapS-1) > 1e-6 {
		t.Fatalf("launch gap = %v, want 1s", a.MeanLaunchGapS)
	}
	// One slot, serialized: the critical path is the whole run.
	if cp := a.CriticalPath; cp.Jobs != 3 || cp.ExecS > a.MakespanS+1e-6 {
		t.Fatalf("critical path = %+v, makespan %v", cp, a.MakespanS)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Jobs != 0 || a.Slots != 0 || a.RecommendedJobs != 0 || a.EffectiveParallelism != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
}

func TestFromJoblogEmpty(t *testing.T) {
	if spans := FromJoblog(nil); len(spans) != 0 {
		t.Fatalf("spans from empty joblog = %v", spans)
	}
}

func TestFromJoblogLanes(t *testing.T) {
	entries := []core.JoblogEntry{
		{Seq: 3, Start: 102.5, Runtime: 1.0},
		{Seq: 1, Start: 100.0, Runtime: 2.0, Command: "echo a", Host: "n1"},
		{Seq: 2, Start: 100.5, Runtime: 1.0, Exitval: 3},
	}
	spans := FromJoblog(entries)
	// Spans come back in start order. Jobs 1 and 2 overlap: distinct
	// slots. Job 3 starts after both ended: slot 1 again.
	var seqs, slots []int
	for _, s := range spans {
		seqs, slots = append(seqs, s.Seq), append(slots, s.Slot)
	}
	if !reflect.DeepEqual(seqs, []int{1, 2, 3}) || !reflect.DeepEqual(slots, []int{1, 2, 1}) {
		t.Fatalf("seqs %v on slots %v, want [1 2 3] on [1 2 1]", seqs, slots)
	}
	if spans[0].Command != "echo a" || spans[0].Exec != 2*time.Second {
		t.Fatalf("span = %+v", spans[0])
	}

	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, s := range spans {
		tw.Write(s)
	}
	tw.Close()
	jobs := jobSlices(traceRecords(t, buf.String()))
	if len(jobs) != 3 {
		t.Fatalf("job slices = %d", len(jobs))
	}
	if jobs[0]["ts"].(float64) != 100e6 || jobs[0]["dur"].(float64) != 2e6 || jobs[0]["tid"].(float64) != 1 {
		t.Fatalf("job 1 slice = %v", jobs[0])
	}
}

// peakConcurrency sweeps start/end edges, ends pulled back one quantum
// (clamped to the start) and ordered before starts at equal times.
func peakConcurrency(entries []core.JoblogEntry) int {
	type edge struct {
		t     float64
		delta int
	}
	var edges []edge
	for _, e := range entries {
		end, q := e.Start+e.Runtime, quantum.Seconds()
		if end-q > e.Start {
			end -= q
		}
		edges = append(edges, edge{e.Start, +1}, edge{end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	running, peak := 0, 0
	for _, e := range edges {
		running += e.delta
		peak = max(peak, running)
	}
	return peak
}

// Property: slot assignment is a proper interval coloring — no two
// overlapping jobs share a slot, and the slot count is the peak
// concurrency.
func TestPropertyLaneAssignment(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 || len(raw) > 60 {
			return true
		}
		entries := make([]core.JoblogEntry, len(raw)/2)
		for i := range entries {
			start := float64(raw[2*i]%1000) / 10
			dur := float64(raw[2*i+1]%100)/10 + 0.1
			entries[i] = core.JoblogEntry{Seq: i + 1, Start: start, Runtime: dur}
		}
		spans := FromJoblog(entries)
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				// Same sub-quantum tolerance as FromJoblog: float
				// round-trips of grid-valued starts and runtimes can
				// otherwise manufacture ~1ns "overlaps".
				if a.Slot == b.Slot && b.End.Sub(a.Started) > quantum && a.End.Sub(b.Started) > quantum {
					return false
				}
			}
		}
		return Analyze(spans).Slots == peakConcurrency(entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendedJobs(t *testing.T) {
	// n spans on 64 slots, each exec long, with an optional measured
	// dispatch cost.
	run := func(n int, exec, dispatch time.Duration) Analysis {
		spans := make([]Span, n)
		for i := range spans {
			start := t0.Add(time.Duration(i/64) * time.Second)
			spans[i] = Span{Seq: i + 1, Slot: i%64 + 1, OK: true, Started: start,
				End: start.Add(dispatch + exec), Dispatch: dispatch, Exec: exec}
		}
		return Analyze(spans)
	}
	// At GNU Parallel's 2.128ms dispatch (a joblog measures none), one
	// dispatcher refills ~235 slots of 500ms tasks.
	if got := run(1000, 500*time.Millisecond, 0).RecommendedJobs; got < 200 || got > 260 {
		t.Fatalf("recommended jobs = %d, want ~235", got)
	}
	// Short tasks: the recommendation collapses toward 1.
	if got := run(1000, 4*time.Millisecond, 0).RecommendedJobs; got > 3 {
		t.Fatalf("short-task recommendation = %d, want <=3", got)
	}
	// A measured dispatch cost replaces the default: 500ms / 1ms + 1,
	// give or take the float rounding of the mean.
	if got := run(1000, 500*time.Millisecond, time.Millisecond).RecommendedJobs; got < 500 || got > 501 {
		t.Fatalf("measured-dispatch recommendation = %d, want ~501", got)
	}
	// Capped at the job count.
	if got := run(100, 500*time.Millisecond, 0).RecommendedJobs; got != 100 {
		t.Fatalf("capped recommendation = %d, want 100", got)
	}
	// Zero exec falls back to the slot count.
	if got := run(1000, 0, 0).RecommendedJobs; got != 64 {
		t.Fatalf("fallback = %d, want 64 slots", got)
	}
}

func TestEndToEndFromEngineJoblog(t *testing.T) {
	// Run a real workload through the engine, then analyze its joblog —
	// the paper's "extract a parallel profile" loop.
	var log bytes.Buffer
	runner := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return nil, nil
	})
	spec, _ := core.NewSpec("", 4)
	spec.Joblog = &log
	eng, _ := core.NewEngine(spec, runner)
	items := make([]string, 16)
	if _, _, err := eng.Run(context.Background(), args.Literal(items...)); err != nil {
		t.Fatal(err)
	}
	entries, err := core.ParseJoblog(&log)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(FromJoblog(entries))
	if a.Jobs != 16 {
		t.Fatalf("jobs = %d", a.Jobs)
	}
	if a.Slots > 4 {
		t.Fatalf("slots %d exceed -j 4", a.Slots)
	}
	if a.Slots < 3 {
		t.Fatalf("slots %d; engine underutilized", a.Slots)
	}
	if a.EffectiveParallelism < 2 {
		t.Fatalf("effective parallelism = %v", a.EffectiveParallelism)
	}
	if a.CriticalPath.ExecS > a.MakespanS {
		t.Fatalf("critical path exec %v > makespan %v", a.CriticalPath.ExecS, a.MakespanS)
	}
}
