package dist

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/args"
	"repro/internal/core"
)

// waitCredits waits until every credit of the pool is back in its free
// channel: nothing in flight, nothing leaked.
func waitCredits(t *testing.T, pool *Pool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(pool.free) != pool.Window() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d credits back", len(pool.free), pool.Window())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelReachesWorkerRunner: cancelling a Run kills the job on the
// worker — its runner sees ctx.Done() within 100 ms — and the session
// stays up with its credit returned.
func TestCancelReachesWorkerRunner(t *testing.T) {
	started := make(chan struct{})
	seen := make(chan time.Time, 1)
	addr := startWorker(t, "w", 1, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		if job.Seq != 1 {
			return []byte("ok"), nil
		}
		close(started)
		select {
		case <-ctx.Done():
			seen <- time.Now()
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return nil, nil
		}
	}))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan core.Result, 1)
	go func() { done <- pool.Run(ctx, &core.Job{Seq: 1}) }()
	<-started
	cancelled := time.Now()
	cancel()
	select {
	case at := <-seen:
		if d := at.Sub(cancelled); d > 100*time.Millisecond {
			t.Fatalf("worker runner saw the cancel %v after the coordinator's", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker runner never saw the cancel")
	}
	if res := <-done; res.OK() || res.Err == nil {
		t.Fatalf("cancelled run = %+v", res)
	}
	waitCredits(t, pool)
	if h := pool.Health(); h.Live != 1 {
		t.Fatalf("session did not survive the cancel: %+v", h)
	}
	if res := pool.Run(context.Background(), &core.Job{Seq: 2}); !res.OK() {
		t.Fatalf("run after cancel = %+v", res)
	}
}

// TestCancelDropsQueuedJob: a cancelled job still waiting in the
// worker's run queue never starts, and its credit comes back.
func TestCancelDropsQueuedJob(t *testing.T) {
	release := make(chan struct{})
	var ran sync.Map
	addr := startWorker(t, "w", 1, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		ran.Store(job.Seq, true)
		if job.Seq == 1 {
			<-release
		}
		return nil, nil
	}))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	first := make(chan core.Result, 1)
	go func() { first <- pool.Run(context.Background(), &core.Job{Seq: 1}) }()
	for _, ok := ran.Load(1); !ok; _, ok = ran.Load(1) {
		time.Sleep(time.Millisecond)
	}
	// Seq 2 reaches the worker's queue behind the busy slot.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if res := pool.Run(ctx, &core.Job{Seq: 2}); res.Err == nil {
		t.Fatalf("queued job outlived its context: %+v", res)
	}
	// The cancel is asynchronous; the worker's answer to it returns
	// seq 2's credit while seq 1 still holds its own.
	deadline := time.Now().Add(5 * time.Second)
	for len(pool.free) != pool.Window()-1 {
		if time.Now().After(deadline) {
			t.Fatal("the worker never answered the cancel")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if res := <-first; !res.OK() {
		t.Fatalf("seq 1 = %+v", res)
	}
	waitCredits(t, pool)
	if _, ok := ran.Load(2); ok {
		t.Fatal("the cancelled queued job ran")
	}
}

// TestPoolSameSeqConcurrent: two jobs with one seq (two jobd queues
// each have a seq 1) share a session and each gets its own result.
func TestPoolSameSeqConcurrent(t *testing.T) {
	addr := startWorker(t, "w", 2, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		if job.Args[0] == "slow" {
			time.Sleep(50 * time.Millisecond)
		}
		return []byte(job.Args[0]), nil
	}))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var wg sync.WaitGroup
	for _, arg := range []string{"slow", "fast"} {
		wg.Add(1)
		go func(arg string) {
			defer wg.Done()
			res := pool.Run(context.Background(), &core.Job{Seq: 1, Args: []string{arg}})
			if !res.OK() || string(res.Stdout) != arg {
				t.Errorf("job %q got %+v (stdout %q)", arg, res, res.Stdout)
			}
		}(arg)
	}
	wg.Wait()
}

// TestSessionLossFullWindow kills a worker's connection with a full
// window in flight: no seq executes twice, every job gets a terminal
// result, nothing starts on the dead connection after the loss, and
// the redial restores the whole window.
func TestSessionLossFullWindow(t *testing.T) {
	const n = 300
	starts := make([]atomic.Int32, n+1)
	var killedAt atomic.Int64
	var lateStarts atomic.Int32
	mk := func(old bool) core.FuncRunner {
		return func(ctx context.Context, job *core.Job) ([]byte, error) {
			starts[job.Seq].Add(1)
			// Past the kill by more than the few instructions between a
			// slot taking its job and entering Run.
			if k := killedAt.Load(); old && k != 0 && time.Now().UnixNano()-k > int64(time.Millisecond) {
				lateStarts.Add(1)
			}
			time.Sleep(2 * time.Millisecond) // deaf to ctx: a queue left running shows
			return nil, nil
		}
	}
	addr, kill := startKillableWorker(t, "127.0.0.1:0", WorkerConfig{Name: "w", Slots: 2, Runner: mk(true)})
	pool, err := Dial([]WorkerSpec{{Addr: addr}}, WithRedialBudget(50))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	spec, _ := core.NewSpec("", pool.Window())
	var results atomic.Int32
	trigger := make(chan struct{})
	spec.OnResult = func(core.Result) {
		if results.Add(1) == 40 {
			close(trigger)
		}
	}
	eng, _ := core.NewEngine(spec, pool)
	type outcome struct {
		stats core.Stats
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		stats, _, err := eng.Run(context.Background(), args.Literal(make([]string, n)...))
		done <- outcome{stats, err}
	}()
	<-trigger
	kill()
	killedAt.Store(time.Now().UnixNano())
	startKillableWorker(t, addr, WorkerConfig{Name: "w", Slots: 2, Runner: mk(false)})
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if st := out.stats; st.Succeeded+st.Failed != n || st.Failed == 0 || st.Failed > pool.Window() {
		t.Fatalf("stats = %+v: want %d terminal, 1..%d lost with the session", st, n, pool.Window())
	}
	for seq := 1; seq <= n; seq++ {
		if c := starts[seq].Load(); c > 1 {
			t.Fatalf("seq %d executed %d times", seq, c)
		}
	}
	if c := lateStarts.Load(); c != 0 {
		t.Fatalf("%d jobs started on the lost connection after it died", c)
	}
	waitCredits(t, pool)
	if h := pool.Health(); h != (Health{Total: 2, Live: 2}) {
		t.Fatalf("health after redial = %+v", h)
	}
}

// TestHaltNowFullWindow: --halt now,fail=1 with a full window stops the
// worker cold — the cancels for the whole window land in one frame, so
// no slot a kill frees starts a queued job after the halt.
func TestHaltNowFullWindow(t *testing.T) {
	var mu sync.Mutex
	var startTimes []time.Time
	addr := startWorker(t, "w", 2, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		mu.Lock()
		startTimes = append(startTimes, time.Now())
		mu.Unlock()
		d := 300 * time.Millisecond
		if job.Seq == 1 {
			d = 30 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if job.Seq == 1 {
			return nil, fmt.Errorf("fail")
		}
		return nil, nil
	}))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var haltAt atomic.Int64
	spec, _ := core.NewSpec("", pool.Window())
	spec.Halt = core.HaltPolicy{When: core.HaltNow, Threshold: 1}
	eng, _ := core.NewEngine(spec, haltClock{pool, &haltAt})
	stats, _, _ := eng.Run(context.Background(), args.Literal(make([]string, 100)...))
	if stats.Failed == 0 {
		t.Fatalf("halt never triggered: %+v", stats)
	}
	time.Sleep(200 * time.Millisecond) // any straggler would start by now
	mu.Lock()
	defer mu.Unlock()
	halted := time.Unix(0, haltAt.Load())
	for _, at := range startTimes {
		if at.After(halted) {
			t.Fatalf("a job started on the worker %v after the halt (%d started in all)", at.Sub(halted), len(startTimes))
		}
	}
}

// haltClock stamps when the failing seq 1 returns: the engine halts
// right after.
type haltClock struct {
	*Pool
	at *atomic.Int64
}

func (h haltClock) Run(ctx context.Context, job *core.Job) core.Result {
	res := h.Pool.Run(ctx, job)
	if job.Seq == 1 {
		h.at.Store(time.Now().UnixNano())
	}
	return res
}

// TestKeepOrderOverWindow: -k releases output in input order even
// though a windowed pool finishes jobs in any order.
func TestKeepOrderOverWindow(t *testing.T) {
	addr := startWorker(t, "w", 4, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		time.Sleep(time.Duration(rand.Intn(3000)) * time.Microsecond)
		return []byte(job.Args[0] + "\n"), nil
	}))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	items := make([]string, 300)
	for i := range items {
		items[i] = fmt.Sprint(i)
	}
	var out strings.Builder
	spec, _ := core.NewSpec("", pool.Window())
	spec.KeepOrder = true
	spec.Out = &out
	eng, _ := core.NewEngine(spec, pool)
	if stats, _, err := eng.Run(context.Background(), args.Literal(items...)); err != nil || stats.Succeeded != len(items) {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
	if got, want := out.String(), strings.Join(items, "\n")+"\n"; got != want {
		t.Fatalf("output out of order:\n%.200s", got)
	}
}

// TestTimeoutFromWorkerStart: a job's --timeout runs from its start on
// the worker, not from when its credit was taken. A full window of
// 100 ms jobs queues well past 300 ms behind two slots without timing
// out, and a 1 s job still times out at 300 ms.
func TestTimeoutFromWorkerStart(t *testing.T) {
	addr := startWorker(t, "w", 2, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		d := 100 * time.Millisecond
		if job.Args[0] == "long" {
			d = time.Second
		}
		select {
		case <-time.After(d):
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	run := func(items ...string) (core.Stats, []core.Result) {
		var mu sync.Mutex
		var results []core.Result
		spec, _ := core.NewSpec("", pool.Window())
		spec.Timeout = 300 * time.Millisecond
		spec.OnResult = func(r core.Result) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}
		eng, _ := core.NewEngine(spec, pool)
		stats, _, err := eng.Run(context.Background(), args.Literal(items...))
		if err != nil {
			t.Fatal(err)
		}
		return stats, results
	}
	window := make([]string, pool.Window())
	for i := range window {
		window[i] = "short"
	}
	if stats, results := run(window...); stats.Failed != 0 {
		for _, r := range results {
			if !r.OK() {
				t.Fatalf("%d of %d queued jobs failed, e.g. %+v", stats.Failed, len(window), r)
			}
		}
	}
	stats, results := run("long")
	if stats.Failed != 1 || len(results) != 1 || !results[0].TimedOut {
		t.Fatalf("1 s job under --timeout 300ms: stats=%+v results=%+v", stats, results)
	}
	if d := results[0].End.Sub(results[0].Start); d > 900*time.Millisecond {
		t.Fatalf("timed-out job ran %v", d)
	}
}

// TestAbandonAfterCohortAnswered: when a cohort member's Run reaches
// abandon only after the worker answered the cancel frame its cohort
// sent, it still gets its answer instead of waiting forever, and every
// credit comes back.
func TestAbandonAfterCohortAnswered(t *testing.T) {
	free := make(chan *session, 2)
	s := &session{sendq: make(chan request, 2), pending: map[uint64]call{}, dead: make(chan struct{}), free: free}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chA, chB := make(chan response, 1), make(chan response, 1)
	s.pending[1] = call{ch: chA, done: ctx.Done()}
	s.pending[2] = call{ch: chB, done: ctx.Done()}

	if _, err := s.abandon(1, chA, true, ctx.Err()); err == nil {
		t.Fatal("the first abandon returned no error")
	}
	if req := <-s.sendq; len(req.cancel) != 2 {
		t.Fatalf("cancel frame names %v, want both round trips", req.cancel)
	}
	// The worker answers both before round trip 2's Run gets to abandon.
	s.deliver(response{ID: 1})
	s.deliver(response{ID: 2, Err: "dist: cancelled before it started"})

	done := make(chan response, 1)
	go func() {
		resp, _ := s.abandon(2, chB, true, ctx.Err())
		done <- resp
	}()
	select {
	case resp := <-done:
		if resp.ID != 2 {
			t.Fatalf("round trip 2 got %+v", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cohort member abandoning after the worker answered hangs")
	}
	if len(free) != 2 || len(s.sendq) != 0 || len(s.pending) != 0 {
		t.Fatalf("credits back %d of 2, %d more cancel frames, %d still pending", len(free), len(s.sendq), len(s.pending))
	}
}

// TestTimeoutBackstopStuckWorker: a worker whose runner ignores its
// context cannot hold a job past the coordinator's --timeout backstop;
// the job is reported timed out and the session stays up.
func TestTimeoutBackstopStuckWorker(t *testing.T) {
	release := make(chan struct{})
	addr := startWorker(t, "w", 1, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		<-release
		return nil, nil
	}))
	defer close(release)
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const timeout = 20 * time.Millisecond
	start := time.Now()
	res := pool.RunTimeout(context.Background(), &core.Job{Seq: 1}, timeout)
	took := time.Since(start)
	if !res.TimedOut || res.Err == nil {
		t.Fatalf("stuck job = %+v, want timed out", res)
	}
	if b := timeoutBackstop(timeout); took < b || took > b+2*time.Second {
		t.Fatalf("gave up after %v, want the backstop %v", took, b)
	}
	if h := pool.Health(); h.Live != 1 {
		t.Fatalf("session did not survive the backstop: %+v", h)
	}
}

// TestRunQueueCancelUnstartedSlot: a cancel frame naming id 0 — the id
// of a slot that has run nothing yet — or an unknown id is a no-op.
func TestRunQueueCancelUnstartedSlot(t *testing.T) {
	q := newRunQueue(context.Background(), 2)
	if dropped := q.cancel([]uint64{0, 7}, nil); len(dropped) != 0 {
		t.Fatalf("dropped %d jobs from an empty queue", len(dropped))
	}
}
