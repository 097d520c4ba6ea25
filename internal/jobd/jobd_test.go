package jobd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// countRunner records how many times each command ran — the
// exactly-once audit primitive for restart tests. An optional gate
// blocks every run until released, and an optional perRun hook sees
// each command.
type countRunner struct {
	mu     sync.Mutex
	runs   map[string]int
	gate   chan struct{}
	perRun func(cmd string)
	fail   func(cmd string) bool
}

func newCountRunner() *countRunner {
	return &countRunner{runs: map[string]int{}}
}

func (r *countRunner) setGate(gate chan struct{}) {
	r.mu.Lock()
	r.gate = gate
	r.mu.Unlock()
}

func (r *countRunner) Run(ctx context.Context, job *core.Job) core.Result {
	start := time.Now()
	r.mu.Lock()
	gate := r.gate
	r.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return core.Result{Job: *job, Err: ctx.Err(), ExitCode: -1, Start: start, End: time.Now()}
		}
	}
	r.mu.Lock()
	r.runs[job.Command]++
	r.mu.Unlock()
	if r.perRun != nil {
		r.perRun(job.Command)
	}
	res := core.Result{Job: *job, Start: start, End: time.Now()}
	if r.fail != nil && r.fail(job.Command) {
		res.ExitCode = 7
	}
	return res
}

func (r *countRunner) count(cmd string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs[cmd]
}

func (r *countRunner) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.runs {
		n += c
	}
	return n
}

func newTestServer(t *testing.T, dir string, runner core.Runner, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Dir:        dir,
		Slots:      4,
		Runner:     runner,
		DrainGrace: 2 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitTerminal(t *testing.T, q *queue, seq int) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := q.Wait(ctx, seq, 0)
	if err != nil {
		t.Fatalf("wait %d: %v", seq, err)
	}
	if st.State == "pending" || st.State == "running" {
		t.Fatalf("job %d not terminal after wait: %s", seq, st.State)
	}
	return st
}

func TestSubmitRunsAndCompletes(t *testing.T) {
	r := newCountRunner()
	s := newTestServer(t, t.TempDir(), r, nil)
	defer s.Close()

	q, err := s.EnsureQueue("alpha")
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := q.Submit([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("seqs = %v, want [1 2 3]", seqs)
	}
	for _, seq := range seqs {
		if st := waitTerminal(t, q, seq); st.State != "ok" {
			t.Fatalf("job %d state %s, want ok", seq, st.State)
		}
	}
	for _, cmd := range []string{"a", "b", "c"} {
		if r.count(cmd) != 1 {
			t.Fatalf("command %q ran %d times, want 1", cmd, r.count(cmd))
		}
	}
	st := q.stats()
	if st.OK != 3 || st.Submitted != 3 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailedJobReported(t *testing.T) {
	r := newCountRunner()
	r.fail = func(cmd string) bool { return strings.HasPrefix(cmd, "bad") }
	s := newTestServer(t, t.TempDir(), r, nil)
	defer s.Close()

	q, _ := s.EnsureQueue("alpha")
	seqs, err := q.Submit([]string{"good", "bad1"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q, seqs[0]); st.State != "ok" {
		t.Fatalf("good job state %s", st.State)
	}
	st := waitTerminal(t, q, seqs[1])
	if st.State != "failed" || st.Exit != 7 {
		t.Fatalf("bad job = %+v, want failed exit 7", st)
	}
}

// TestResumeAcrossRestart pins the service's durability contract: jobs
// pending at (graceful) shutdown run exactly once after reopen, and
// completed jobs — including failures — never re-run.
func TestResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	r := newCountRunner()
	r.fail = func(cmd string) bool { return cmd == "fails" }

	s := newTestServer(t, dir, r, func(c *Config) { c.DrainGrace = 200 * time.Millisecond })
	q, _ := s.EnsureQueue("alpha")
	seqs, err := q.Submit([]string{"done1", "fails", "done2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		waitTerminal(t, q, seq)
	}
	// Trap the runner shut, then submit jobs that cannot finish before
	// Close: the dispatched ones (up to quota) are cancelled at the
	// drain grace and recorded failed; the never-dispatched rest stay
	// pending and must run after reopen.
	r.setGate(make(chan struct{}))
	if _, err := q.Submit([]string{"late1", "late2", "late3", "late4", "late5", "late6"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	preLate := 0
	for i := 1; i <= 6; i++ {
		preLate += r.count(fmt.Sprintf("late%d", i))
	}
	if preLate != 0 {
		t.Fatalf("gated late jobs ran before restart: %d", preLate)
	}

	// Second generation: gate open; the pending backlog drains.
	r.setGate(nil)
	s2 := newTestServer(t, dir, r, nil)
	defer s2.Close()
	q2, err := s2.Queue("alpha")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := q2.stats()
		if st.Pending == 0 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if r.count("done1") != 1 || r.count("done2") != 1 || r.count("fails") != 1 {
		t.Fatalf("completed jobs re-ran: done1=%d fails=%d done2=%d",
			r.count("done1"), r.count("fails"), r.count("done2"))
	}
	st := q2.stats()
	if st.Submitted != 9 {
		t.Fatalf("submitted = %d, want 9", st.Submitted)
	}
	// Every late job ran at most once after the restart (the cancelled
	// ones are terminal-failed and excluded from resume).
	for i := 1; i <= 6; i++ {
		cmd := fmt.Sprintf("late%d", i)
		if c := r.count(cmd); c > 1 {
			t.Fatalf("%s ran %d times, want <= 1", cmd, c)
		}
	}
	if st.OK+st.Failed+st.Cancelled != 9 {
		t.Fatalf("not all jobs terminal: %+v", st)
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	r := newCountRunner()
	r.gate = make(chan struct{})
	started := make(chan string, 16)
	r.perRun = func(cmd string) { started <- cmd }

	s := newTestServer(t, t.TempDir(), r, func(c *Config) { c.Slots = 1; c.DefaultQuota = 1 })
	defer s.Close()
	q, _ := s.EnsureQueue("alpha")

	// blocker occupies the single slot; victim stays pending.
	seqs, err := q.Submit([]string{"blocker", "victim"})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the pending victim: terminal immediately, runner never sees it.
	st, err := q.Cancel(seqs[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("victim state %s, want cancelled", st.State)
	}
	if _, err := q.Cancel(seqs[1]); err != ErrAlreadyDone {
		t.Fatalf("double cancel err = %v, want ErrAlreadyDone", err)
	}
	close(r.gate)
	if stb := waitTerminal(t, q, seqs[0]); stb.State != "ok" {
		t.Fatalf("blocker state %s", stb.State)
	}
	if st := waitTerminal(t, q, seqs[1]); st.State != "cancelled" {
		t.Fatalf("victim settled as %s, want cancelled", st.State)
	}
	if r.count("victim") != 0 {
		t.Fatalf("cancelled pending job ran %d times", r.count("victim"))
	}
}

func TestCancelRunningJobKillsIt(t *testing.T) {
	blockerRunning := make(chan struct{}, 1)
	unblocked := make(chan struct{})
	runner := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		if job.Command == "sleeper" {
			blockerRunning <- struct{}{}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-unblocked:
				return nil, nil
			}
		}
		return nil, nil
	})
	s := newTestServer(t, t.TempDir(), runner, nil)
	defer s.Close()
	defer close(unblocked)
	q, _ := s.EnsureQueue("alpha")
	seqs, err := q.Submit([]string{"sleeper"})
	if err != nil {
		t.Fatal(err)
	}
	<-blockerRunning
	if _, err := q.Cancel(seqs[0]); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, q, seqs[0])
	if st.State != "cancelled" {
		t.Fatalf("killed job state %s, want cancelled", st.State)
	}
}

// TestCancelSurvivesRestart: a cancel is persisted before it is acted
// on, so a restart cannot resurrect the job.
func TestCancelSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	r := newCountRunner()
	r.setGate(make(chan struct{})) // nothing completes in generation one

	// Quota 1: "blocker" occupies the engine slot blocked on the gate,
	// so "victim" and "survivor" are still pending when we cancel and
	// close. The blocker itself is cancelled at the drain grace and
	// recorded failed — a graceful stop leaves no job mid-flight.
	s := newTestServer(t, dir, r, func(c *Config) {
		c.Slots = 1
		c.DrainGrace = 50 * time.Millisecond
	})
	q, _ := s.EnsureQueue("alpha")
	seqs, err := q.Submit([]string{"blocker", "victim", "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Cancel(seqs[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// One log per queue: the cancel lives in the WAL beside the submits.
	entries, err := os.ReadDir(filepath.Join(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "queue.json wal" {
		t.Fatalf("queue directory holds %q, want %q", got, "queue.json wal")
	}

	r.setGate(nil)
	s2 := newTestServer(t, dir, r, nil)
	defer s2.Close()
	q2, err := s2.Queue("alpha")
	if err != nil {
		t.Fatal(err)
	}
	st, err := q2.Status(seqs[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("cancelled job resurrected as %s", st.State)
	}
	if st := waitTerminal(t, q2, seqs[2]); st.State != "ok" {
		t.Fatalf("survivor state %s, want ok", st.State)
	}
	if r.count("survivor") != 1 {
		t.Fatalf("survivor ran %d times, want 1", r.count("survivor"))
	}
	if r.count("victim") != 0 {
		t.Fatalf("cancelled job ran %d times after restart", r.count("victim"))
	}
}

// TestCancelRacingCompletion releases each running job's gate and then
// cancels it after a delay that sweeps across the job's finish, so some
// cancels land before the completion, some after and some while it is
// being recorded. Whichever reaches the log first decides, and every
// view must agree with it: the cancel's answer, the job's final state,
// and its state after a restart. A cancel that lands after the
// completion gets ErrAlreadyDone and leaves the job ok.
func TestCancelRacingCompletion(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	gates := make([]chan struct{}, n+1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	running := make(chan struct{}, n)
	runner := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		running <- struct{}{}
		select {
		case <-gates[job.Seq]:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s := newTestServer(t, dir, runner, func(c *Config) { c.Slots = n })
	q, err := s.ConfigureQueue("race", QueueConfig{Quota: n, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]string, n)
	for i := range cmds {
		cmds[i] = fmt.Sprintf("job-%d", i+1)
	}
	seqs, err := q.Submit(cmds)
	if err != nil {
		t.Fatal(err)
	}
	for range seqs {
		<-running
	}
	final := map[int]string{}
	wins := map[bool]int{}
	for i, seq := range seqs {
		close(gates[seq])
		for start, d := time.Now(), time.Duration(i)*5*time.Microsecond; time.Since(start) < d; {
		}
		st, err := q.Cancel(seq)
		end := waitTerminal(t, q, seq)
		switch {
		case err == nil:
			if (st.State != "running" && st.State != "cancelled") || end.State != "cancelled" {
				t.Fatalf("job %d: cancel accepted as %s, settled %s", seq, st.State, end.State)
			}
		case errors.Is(err, ErrAlreadyDone):
			if st.State != "ok" || end.State != "ok" {
				t.Fatalf("job %d: cancel refused as %s, settled %s", seq, st.State, end.State)
			}
		default:
			t.Fatalf("job %d: cancel: %v", seq, err)
		}
		wins[err == nil]++
		final[seq] = end.State
	}
	t.Logf("cancel won %d races, completion %d", wins[true], wins[false])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, dir, runner, nil)
	defer s2.Close()
	q2, err := s2.Queue("race")
	if err != nil {
		t.Fatal(err)
	}
	for seq, want := range final {
		if st, err := q2.Status(seq); err != nil || st.State != want {
			t.Fatalf("job %d after restart: %s, %v; before it %s", seq, st.State, err, want)
		}
	}
}

// TestFairShareIsolation is the ISSUE's starvation criterion: a tenant
// saturating the pool with a deep backlog cannot stop another queue
// from getting its fair share. With equal weights and a single slot,
// the light tenant's 5 jobs must all finish within the first ~2×5
// grants even though the heavy tenant has 200 queued ahead of them.
func TestFairShareIsolation(t *testing.T) {
	var grantOrder []string
	var mu sync.Mutex
	startGate := make(chan struct{}) // held until both tenants have submitted
	runner := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		<-startGate
		mu.Lock()
		grantOrder = append(grantOrder, job.Command)
		mu.Unlock()
		// Long enough that each tenant's next job is back in the
		// scheduler's wait list before the slot frees: the fair-share
		// decision then happens under real contention every time.
		time.Sleep(time.Millisecond)
		return nil, nil
	})
	s := newTestServer(t, t.TempDir(), runner, func(c *Config) {
		c.Slots = 1
		c.DefaultQuota = 1
	})
	defer s.Close()

	heavy, err := s.ConfigureQueue("heavy", QueueConfig{Quota: 1, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	light, err := s.ConfigureQueue("light", QueueConfig{Quota: 1, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}

	heavyCmds := make([]string, 200)
	for i := range heavyCmds {
		heavyCmds[i] = fmt.Sprintf("heavy-%d", i)
	}
	if _, err := heavy.Submit(heavyCmds); err != nil {
		t.Fatal(err)
	}
	lightCmds := []string{"light-0", "light-1", "light-2", "light-3", "light-4"}
	seqs, err := light.Submit(lightCmds)
	if err != nil {
		t.Fatal(err)
	}
	close(startGate)
	for _, seq := range seqs {
		if st := waitTerminal(t, light, seq); st.State != "ok" {
			t.Fatalf("light job %d state %s", seq, st.State)
		}
	}
	// All five light jobs are done. Count how many heavy jobs completed
	// before the last light one: with 1:1 weights the scheduler
	// interleaves, so the bound is ~#light + quota slack; far below the
	// 200-job backlog a FIFO pool would have drained first.
	mu.Lock()
	var heavyBefore, lightSeen int
	for _, cmd := range grantOrder {
		if strings.HasPrefix(cmd, "light-") {
			lightSeen++
			if lightSeen == len(lightCmds) {
				break
			}
		} else {
			heavyBefore++
		}
	}
	mu.Unlock()
	if heavyBefore > 20 {
		t.Fatalf("light tenant starved: %d heavy jobs ran before its 5 finished", heavyBefore)
	}
}

// TestQuotaCapsConcurrency: a queue cannot occupy more slots than its
// quota even when the global pool is idle.
func TestQuotaCapsConcurrency(t *testing.T) {
	var running, peak atomic.Int32
	gate := make(chan struct{})
	runner := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-gate
		running.Add(-1)
		return nil, nil
	})
	s := newTestServer(t, t.TempDir(), runner, func(c *Config) { c.Slots = 8 })
	defer s.Close()
	q, err := s.ConfigureQueue("capped", QueueConfig{Quota: 2, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]string, 10)
	for i := range cmds {
		cmds[i] = fmt.Sprintf("j%d", i)
	}
	seqs, err := q.Submit(cmds)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	close(gate)
	for _, seq := range seqs {
		waitTerminal(t, q, seq)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("quota-2 queue reached %d concurrent jobs", p)
	}
}

// TestConfigureQueueQuotaRestart: raising the quota mid-run restarts
// the engine generation in place without losing or re-running work.
func TestConfigureQueueQuotaRestart(t *testing.T) {
	r := newCountRunner()
	s := newTestServer(t, t.TempDir(), r, func(c *Config) { c.Slots = 4 })
	defer s.Close()
	q, err := s.ConfigureQueue("grow", QueueConfig{Quota: 1, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := q.Submit([]string{"one", "two"})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		waitTerminal(t, q, seq)
	}
	if _, err := s.ConfigureQueue("grow", QueueConfig{Quota: 3, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	seqs2, err := q.Submit([]string{"three", "four"})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs2 {
		if st := waitTerminal(t, q, seq); st.State != "ok" {
			t.Fatalf("post-reconfig job %d state %s", seq, st.State)
		}
	}
	for _, cmd := range []string{"one", "two", "three", "four"} {
		if r.count(cmd) != 1 {
			t.Fatalf("%s ran %d times after quota restart, want 1", cmd, r.count(cmd))
		}
	}
	if got := q.config(); got.Quota != 3 || got.Weight != 2 {
		t.Fatalf("config = %+v", got)
	}
}

func TestQueueValidationAndLookup(t *testing.T) {
	s := newTestServer(t, t.TempDir(), newCountRunner(), nil)
	defer s.Close()
	for _, bad := range []string{"", "a/b", "a\\b", "a.b", strings.Repeat("x", 129)} {
		if _, err := s.EnsureQueue(bad); err == nil {
			t.Fatalf("queue name %q accepted", bad)
		}
	}
	if _, err := s.Queue("nope"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing queue err = %v", err)
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	s := newTestServer(t, t.TempDir(), newCountRunner(), nil)
	q, _ := s.EnsureQueue("alpha")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit([]string{"x"}); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if _, err := s.EnsureQueue("beta"); err != ErrClosed {
		t.Fatalf("ensure after close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close = %v", err)
	}
}
