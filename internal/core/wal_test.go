package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/args"
	"repro/internal/wal"
)

// walSpec builds a FuncRunner spec wired to a fresh WAL in dir.
func walSpec(t *testing.T, dir string, jobs int) *Spec {
	t.Helper()
	s := mustSpec(t, "", jobs)
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s.WAL = l
	return s
}

// countingRunner records how many times each input value executed.
type countingRunner struct {
	mu   sync.Mutex
	runs map[string]int
	fail map[string]bool
}

func (c *countingRunner) Run(ctx context.Context, job *Job) Result {
	c.mu.Lock()
	if c.runs == nil {
		c.runs = map[string]int{}
	}
	v := job.Args[0]
	c.runs[v]++
	failed := c.fail[v]
	c.mu.Unlock()
	res := Result{Job: *job}
	if failed {
		res.ExitCode = 7
	}
	return res
}

// TestEngineWALExactlyOnceResume drives the full loop: run 1 logs
// intents and completions (two jobs fail), run 2 resumes from the
// replayed WAL and must re-run exactly the failures, exactly once.
func TestEngineWALExactlyOnceResume(t *testing.T) {
	dir := t.TempDir()
	input := make([]string, 40)
	for i := range input {
		input[i] = fmt.Sprint("item-", i+1)
	}

	r1 := &countingRunner{fail: map[string]bool{"item-7": true, "item-31": true}}
	s1 := walSpec(t, dir, 4)
	stats, _, err := newTestEngine(t, s1, r1).Run(context.Background(), args.Literal(input...))
	if err != nil || stats.Succeeded != 38 || stats.Failed != 2 {
		t.Fatalf("run1 stats=%+v err=%v", stats, err)
	}
	if err := s1.WAL.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.CompletedOK()) != 38 || len(st.InFlight) != 0 {
		t.Fatalf("replay: %d ok, %d in flight", len(st.CompletedOK()), len(st.InFlight))
	}

	r2 := &countingRunner{}
	s2 := walSpec(t, dir, 4)
	s2.ResumeFrom = st.CompletedOK()
	s2.WALVerifier = st.Verifier()
	stats2, _, err := newTestEngine(t, s2, r2).Run(context.Background(), args.Literal(input...))
	if err != nil || stats2.Succeeded != 2 || stats2.Skipped != 38 {
		t.Fatalf("run2 stats=%+v err=%v", stats2, err)
	}
	for v, n := range r2.runs {
		if n != 1 || (v != "item-7" && v != "item-31") {
			t.Fatalf("run2 executed %q %d times (runs=%v)", v, n, r2.runs)
		}
	}

	// The union of both runs covers every seq exactly once per success.
	if err := s2.WAL.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.CompletedOK()) != 40 {
		t.Fatalf("final coverage %d/40", len(final.CompletedOK()))
	}
}

// TestEngineWALInFlightRerun models the crash window: an intent without
// a completion must be re-run on resume, even though a joblog would
// know nothing about the job.
func TestEngineWALInFlightRerun(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed run by hand: 1 and 3 completed, 2 died mid-run.
	for seq := 1; seq <= 3; seq++ {
		if err := l.AppendIntent(seq, wal.ArgsDigest([]string{fmt.Sprint("v", seq)})); err != nil {
			t.Fatal(err)
		}
	}
	l.AppendCompletion(1, 0, 0, "")
	l.AppendCompletion(3, 0, 0, "")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.InFlight[2] {
		t.Fatalf("seq 2 not in flight: %+v", st)
	}

	r := &countingRunner{}
	s := walSpec(t, dir, 2)
	s.ResumeFrom = st.CompletedOK()
	s.WALVerifier = st.Verifier()
	stats, _, err := newTestEngine(t, s, r).Run(context.Background(), args.Literal("v1", "v2", "v3"))
	if err != nil || stats.Succeeded != 1 || stats.Skipped != 2 {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
	if len(r.runs) != 1 || r.runs["v2"] != 1 {
		t.Fatalf("runs=%v", r.runs)
	}
}

// TestEngineWALDigestMismatch: resuming against changed input must fail
// the run, not silently execute the wrong work.
func TestEngineWALDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	r1 := &countingRunner{fail: map[string]bool{"b": true}}
	s1 := walSpec(t, dir, 2)
	if _, _, err := newTestEngine(t, s1, r1).Run(context.Background(), args.Literal("a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := s1.WAL.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}

	r2 := &countingRunner{}
	s2 := walSpec(t, dir, 2)
	s2.ResumeFrom = st.CompletedOK()
	s2.WALVerifier = st.Verifier()
	// Same length, different content at seq 2: the digest check must
	// trip before the job runs.
	_, _, err = newTestEngine(t, s2, r2).Run(context.Background(), args.Literal("a", "CHANGED", "c"))
	if err == nil || !strings.Contains(err.Error(), "input changed under resume") {
		t.Fatalf("err = %v", err)
	}
	if r2.runs["CHANGED"] != 0 {
		t.Fatalf("changed input executed anyway: %v", r2.runs)
	}
}

// TestEngineWALAppendFailureAborts: a dead log is a broken durability
// promise — the engine must surface it, not keep running unlogged.
func TestEngineWALAppendFailureAborts(t *testing.T) {
	dir := t.TempDir()
	crash := func(point string) bool { return point == wal.PointAppendIntent }
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, CrashHook: crash})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := mustSpec(t, "", 2)
	s.WAL = l
	noop := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) { return nil, nil })
	_, _, err = newTestEngine(t, s, noop).Run(context.Background(), args.Literal("a", "b", "c"))
	if !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
}

func newTestEngine(t *testing.T, s *Spec, r Runner) *Engine {
	t.Helper()
	e, err := NewEngine(s, r)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
