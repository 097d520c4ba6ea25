package dist

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/args"
	"repro/internal/core"
)

// startWorker launches a Serve goroutine on a loopback listener and
// returns its address.
func startWorker(t *testing.T, name string, slots int, runner core.Runner) string {
	t.Helper()
	return startWorkerCfg(t, WorkerConfig{Name: name, Slots: slots, Runner: runner})
}

func echoRunner(prefix string) core.FuncRunner {
	return func(ctx context.Context, job *core.Job) ([]byte, error) {
		return []byte(fmt.Sprintf("%s:%s\n", prefix, strings.Join(job.Args, ","))), nil
	}
}

func TestPoolSingleWorker(t *testing.T) {
	addr := startWorker(t, "w1", 4, echoRunner("w1"))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Slots() != 4 {
		t.Fatalf("slots = %d", pool.Slots())
	}
	res := pool.Run(context.Background(), &core.Job{Seq: 1, Args: []string{"x"}})
	if !res.OK() {
		t.Fatalf("res = %+v", res)
	}
	if string(res.Stdout) != "w1:x\n" {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if res.Host != "w1" {
		t.Fatalf("host = %q", res.Host)
	}
}

// slowStartRunner delays before its Start timestamp, creating a
// measurable worker-side receive-to-start gap.
type slowStartRunner struct{ delay time.Duration }

func (r slowStartRunner) Run(ctx context.Context, job *core.Job) core.Result {
	time.Sleep(r.delay)
	start := time.Now()
	return core.Result{Job: *job, ExitCode: 0, Start: start, End: time.Now()}
}

func TestPoolWorkerDispatchAttribution(t *testing.T) {
	addr := startWorker(t, "wd", 1, slowStartRunner{delay: 20 * time.Millisecond})
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res := pool.Run(context.Background(), &core.Job{Seq: 1})
	if !res.OK() {
		t.Fatalf("res = %+v", res)
	}
	// RecvNS is stamped when the worker reads the request; Start fires
	// ~20ms later, so the pool must attribute a worker-side dispatch
	// segment of at least that much.
	if res.WorkerDispatch < 20*time.Millisecond {
		t.Fatalf("WorkerDispatch = %v, want >= 20ms", res.WorkerDispatch)
	}
	if res.WorkerDispatch > 5*time.Second {
		t.Fatalf("WorkerDispatch = %v, implausibly large", res.WorkerDispatch)
	}
}

func TestPoolSlotCap(t *testing.T) {
	addr := startWorker(t, "w", 8, echoRunner("w"))
	pool, err := Dial([]WorkerSpec{{Addr: addr, Slots: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Slots() != 2 {
		t.Fatalf("slots = %d, want cap 2", pool.Slots())
	}
}

func TestEngineOverPool(t *testing.T) {
	// Full engine -> pool -> two workers. Work lands on both.
	var w1Jobs, w2Jobs atomic.Int64
	mk := func(counter *atomic.Int64, d time.Duration) core.FuncRunner {
		return func(ctx context.Context, job *core.Job) ([]byte, error) {
			counter.Add(1)
			time.Sleep(d)
			return []byte(job.Args[0] + "\n"), nil
		}
	}
	a1 := startWorker(t, "alpha", 2, mk(&w1Jobs, 5*time.Millisecond))
	a2 := startWorker(t, "beta", 2, mk(&w2Jobs, 5*time.Millisecond))
	pool, err := Dial([]WorkerSpec{{Addr: a1}, {Addr: a2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	spec, _ := core.NewSpec("", pool.Slots())
	var hosts sync.Map
	spec.OnResult = func(r core.Result) { hosts.Store(r.Host, true) }
	eng, _ := core.NewEngine(spec, pool)
	items := make([]string, 40)
	for i := range items {
		items[i] = fmt.Sprint(i)
	}
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Succeeded != 40 {
		t.Fatalf("stats = %+v", stats)
	}
	if w1Jobs.Load() == 0 || w2Jobs.Load() == 0 {
		t.Fatalf("work not distributed: alpha=%d beta=%d", w1Jobs.Load(), w2Jobs.Load())
	}
	if w1Jobs.Load()+w2Jobs.Load() != 40 {
		t.Fatalf("job count mismatch: %d", w1Jobs.Load()+w2Jobs.Load())
	}
	for _, h := range []string{"alpha", "beta"} {
		if _, ok := hosts.Load(h); !ok {
			t.Fatalf("no results from %s", h)
		}
	}
}

func TestPoolRealProcesses(t *testing.T) {
	addr := startWorker(t, "exec", 2, &core.ExecRunner{})
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res := pool.Run(context.Background(), &core.Job{Seq: 1, Command: "echo remote hello"})
	if !res.OK() || strings.TrimSpace(string(res.Stdout)) != "remote hello" {
		t.Fatalf("res = %+v stdout=%q", res, res.Stdout)
	}
	// Exit codes propagate.
	res = pool.Run(context.Background(), &core.Job{Seq: 2, Command: "sh -c 'exit 4'"})
	if res.ExitCode != 4 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
	// Stdin (pipe mode) propagates.
	res = pool.Run(context.Background(), &core.Job{Seq: 3, Command: "wc -l", Stdin: []byte("a\nb\n")})
	if strings.TrimSpace(string(res.Stdout)) != "2" {
		t.Fatalf("pipe stdout = %q", res.Stdout)
	}
	// Env propagates.
	res = pool.Run(context.Background(), &core.Job{Seq: 4, Command: "sh -c 'echo $DISTVAR'", Env: []string{"DISTVAR=over-tcp"}})
	if strings.TrimSpace(string(res.Stdout)) != "over-tcp" {
		t.Fatalf("env stdout = %q", res.Stdout)
	}
}

func TestPoolWorkerDeathAndRetry(t *testing.T) {
	// Worker 1 dies mid-run; retries land on worker 2 and the run
	// completes.
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	var served atomic.Int64
	go Serve(ctx1, l1, WorkerConfig{Name: "doomed", Slots: 1, Runner: core.FuncRunner(
		func(ctx context.Context, job *core.Job) ([]byte, error) {
			served.Add(1)
			time.Sleep(2 * time.Millisecond)
			return nil, nil
		})})
	a2 := startWorker(t, "survivor", 2, core.FuncRunner(
		func(ctx context.Context, job *core.Job) ([]byte, error) {
			time.Sleep(2 * time.Millisecond)
			return nil, nil
		}))

	pool, err := Dial([]WorkerSpec{{Addr: l1.Addr().String()}, {Addr: a2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Kill worker 1 after a few jobs have flowed.
	go func() {
		for served.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel1()
	}()

	spec, _ := core.NewSpec("", pool.Slots())
	spec.Retries = 4
	eng, _ := core.NewEngine(spec, pool)
	items := make([]string, 60)
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Succeeded != 60 {
		t.Fatalf("stats = %+v (worker death not absorbed)", stats)
	}
}

// startKillableWorker runs a minimal worker whose listener AND accepted
// connections can be torn down, simulating a node crash (Serve only
// closes its listener on ctx cancellation; established connections
// linger, which is realistic for a hung node but useless for testing
// hard crashes). cfg.Runner defaults to an echo runner.
func startKillableWorker(t *testing.T, addr string, cfg WorkerConfig) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var conns []net.Conn
	if cfg.Runner == nil {
		cfg.Runner = echoRunner(cfg.Name)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go serveConn(ctx, conn, cfg)
		}
	}()
	kill := func() {
		cancel()
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		conns = nil
		mu.Unlock()
	}
	t.Cleanup(kill)
	return l.Addr().String(), kill
}

func TestPoolHealthAndRedialBudget(t *testing.T) {
	// A worker that dies permanently: the broken slot burns its redial
	// budget, then is written off as Lost; the survivor keeps the pool
	// usable at degraded capacity instead of the redialer spinning
	// forever.
	a1, kill1 := startKillableWorker(t, "127.0.0.1:0", WorkerConfig{Name: "dying"})
	a2 := startWorker(t, "steady", 1, echoRunner("s"))

	pool, err := Dial(
		[]WorkerSpec{{Addr: a1}, {Addr: a2}},
		WithRedialBudget(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if h := pool.Health(); h.Total != 2 || h.Live != 2 || h.Degraded() {
		t.Fatalf("initial health = %+v", h)
	}

	// Kill worker 1 for good. The session notices on its own; a job that
	// races the detection fails with a transport error, every other one
	// lands on the survivor. None may succeed on the dead worker.
	kill1()
	errs := 0
	for i := 0; i < 2; i++ {
		res := pool.Run(context.Background(), &core.Job{Seq: i + 1, Args: []string{"x"}})
		switch {
		case res.Err != nil:
			errs++
		case res.Host != "steady":
			t.Fatalf("job %d succeeded on the dead worker: %+v", i+1, res)
		}
	}
	if errs > 1 {
		t.Fatalf("%d transport errors, want at most the one job racing detection", errs)
	}

	// Budget 2 with 100ms+200ms backoff: the slot should be declared
	// lost well within a few seconds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := pool.Health()
		if h.Lost == 1 && h.Redialing == 0 {
			if h.Live != 1 || !h.Degraded() {
				t.Fatalf("degraded health = %+v", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never written off: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The surviving slot still executes work.
	res := pool.Run(context.Background(), &core.Job{Seq: 9, Args: []string{"y"}})
	if !res.OK() || res.Host != "steady" {
		t.Fatalf("survivor run = %+v", res)
	}
}

func TestPoolRedialRecovers(t *testing.T) {
	// A worker that comes back within the budget restores Live capacity.
	addr, kill1 := startKillableWorker(t, "127.0.0.1:0", WorkerConfig{Name: "flaky"})

	pool, err := Dial([]WorkerSpec{{Addr: addr}}, WithRedialBudget(20))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// With its only worker dead the job fails: with a transport error if
	// it raced the session's detection, or by waiting out its context
	// for capacity that is still redialing.
	kill1()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	res := pool.Run(ctx, &core.Job{Seq: 1, Args: []string{"x"}})
	cancel()
	if res.Err == nil {
		t.Fatal("job on a dead worker reported success")
	}

	// Resurrect the worker on the same address.
	startKillableWorker(t, addr, WorkerConfig{Name: "flaky"})

	deadline := time.Now().Add(15 * time.Second)
	for pool.Health().Live != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("slot never recovered: %+v", pool.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}
	res = pool.Run(context.Background(), &core.Job{Seq: 2, Args: []string{"y"}})
	if !res.OK() {
		t.Fatalf("post-recovery run = %+v", res)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Fatal("empty worker list accepted")
	}
	if _, err := Dial([]WorkerSpec{{Addr: "127.0.0.1:1"}}); err == nil {
		t.Fatal("unreachable worker accepted")
	}
}

// fakeWorker accepts one connection, sends greeting, and hangs up.
func fakeWorker(t *testing.T, greeting []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.Write(greeting)
		conn.Close()
	}()
	return l.Addr().String()
}

// TestProtocolVersionMismatch: a peer that does not speak this build's
// protocol is refused with an error naming it and what it sent — on the
// coordinator at Dial, and on the worker by closing the connection.
func TestProtocolVersionMismatch(t *testing.T) {
	junk := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(junk)
	junk[0] = 0xff // not '{', and a length prefix far past maxFrame
	cases := []struct {
		name     string
		greeting []byte
		want     string
	}{
		{"legacy_JSON_hello", []byte(`{"version":1,"name":"old","slots":4,"max_version":3}` + "\n"),
			"speaks the pre-v3 JSON protocol"},
		{"v3_before_cancel_frames", frameBytes(t, encodeHelloV3(nil, hello{Version: 3, Name: "older", Slots: 1})),
			`("older") announces protocol version 3; this build speaks only 4`},
		{"future_version", frameBytes(t, encodeHelloV3(nil, hello{Version: 5, Name: "future", Slots: 1})),
			`("future") announces protocol version 5`},
		{"zero_slots", frameBytes(t, encodeHelloV3(nil, hello{Version: protocolVersion, Name: "empty", Slots: 0})),
			`("empty") advertises 0 slots`},
		{"random_bytes", junk, "sent no valid hello"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeWorker(t, tc.greeting)
			pool, err := Dial([]WorkerSpec{{Addr: addr}})
			if err == nil {
				pool.Close()
				t.Fatal("Dial accepted the peer")
			}
			if msg := err.Error(); !strings.Contains(msg, "worker "+addr) || !strings.Contains(msg, tc.want) {
				t.Fatalf("Dial error %q, want it to name worker %s and %q", msg, addr, tc.want)
			}
		})
	}

	t.Run("coordinator_JSON_line", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		logs := make(chan string, 1) // the one refusal
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		served := make(chan error, 1)
		go func() {
			served <- Serve(ctx, l, WorkerConfig{Name: "w", Slots: 2, Runner: echoRunner("w"),
				Logf: func(format string, args ...any) { logs <- fmt.Sprintf(format, args...) }})
		}()

		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		br := bufio.NewReader(conn)
		if _, err := readHello(br, "w", nil); err != nil {
			t.Fatalf("worker greeting: %v", err)
		}
		// What a pre-v3 coordinator sends after the hello.
		if _, err := conn.Write([]byte(`{"upgrade":2}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
			t.Fatalf("worker answered %q (err %v), want the connection closed", rest, err)
		}
		select {
		case msg := <-logs:
			if !strings.Contains(msg, "coordinator "+conn.LocalAddr().String()) ||
				!strings.Contains(msg, "speaks the pre-v3 JSON protocol") {
				t.Fatalf("logged %q", msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("refusal not logged")
		}

		cancel()
		select {
		case <-served:
		case <-time.After(2 * time.Second):
			t.Fatal("Serve did not return after cancel")
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-baseline)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestPoolMultiplexesSlots: one connection carries a worker's whole
// slot pool, and its slots run concurrently over it.
func TestPoolMultiplexesSlots(t *testing.T) {
	var mu sync.Mutex
	inflight, peak := 0, 0
	addr := startWorker(t, "wc", 4, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		mu.Lock()
		inflight++
		peak = max(peak, inflight)
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return []byte("ok"), nil
	}))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if len(pool.live) != 1 || pool.Slots() != 4 {
		t.Fatalf("%d sessions, %d slots; want 4 slots on one session", len(pool.live), pool.Slots())
	}
	spec, _ := core.NewSpec("", pool.Slots())
	eng, _ := core.NewEngine(spec, pool)
	stats, _, err := eng.Run(context.Background(), args.Literal("a", "b", "c", "d", "e", "f", "g", "h"))
	if err != nil || stats.Succeeded != 8 {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak < 2 {
		t.Fatalf("peak concurrency %d over one multiplexed connection, want >= 2", peak)
	}
}

// TestSessionLossRetiresAllSlots kills a worker's connection while three
// jobs are parked on it: every parked Run fails promptly, and the whole
// slot block moves live → redialing → lost — session death must not
// strand tokens.
func TestSessionLossRetiresAllSlots(t *testing.T) {
	parked := make(chan struct{}, 3)
	release := make(chan struct{})
	addr, kill := startKillableWorker(t, "127.0.0.1:0", WorkerConfig{Name: "doomed", Slots: 3,
		Runner: core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
			parked <- struct{}{}
			<-release
			return nil, nil
		})})
	t.Cleanup(func() { close(release) })

	var hmu sync.Mutex
	var transitions []Health
	pool, err := Dial([]WorkerSpec{{Addr: addr}}, WithRedialBudget(1),
		WithHealthNotify(func(h Health) {
			hmu.Lock()
			transitions = append(transitions, h)
			hmu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if h := pool.Health(); h != (Health{Total: 3, Live: 3}) {
		t.Fatalf("initial health = %+v", h)
	}

	errs := make(chan error, 3)
	for seq := 1; seq <= 3; seq++ {
		go func(seq int) {
			errs <- pool.Run(context.Background(), &core.Job{Seq: seq}).Err
		}(seq)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d jobs reached the worker", i)
		}
	}

	kill()
	killed := time.Now()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a job parked on the dead session reported success")
			}
		case <-time.After(time.Second - time.Since(killed)):
			t.Fatalf("%d of 3 parked jobs still waiting 1s after the connection died", 3-i)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for pool.Health() != (Health{Total: 3, Lost: 3}) {
		if time.Now().After(deadline) {
			t.Fatalf("session loss never fully accounted: %+v", pool.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}
	hmu.Lock()
	defer hmu.Unlock()
	want := []Health{{Total: 3, Redialing: 3}, {Total: 3, Lost: 3}}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("health transitions = %+v, want %+v", transitions, want)
	}
}

func TestPoolContextCancel(t *testing.T) {
	addr := startWorker(t, "slow", 1, core.FuncRunner(
		func(ctx context.Context, job *core.Job) ([]byte, error) {
			select {
			case <-ctx.Done():
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
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := pool.Run(ctx, &core.Job{Seq: 1, Args: []string{"x"}})
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancel did not unblock the pool")
	}
	if res.OK() {
		t.Fatal("cancelled job reported OK")
	}
	if res.Err == nil && !res.TimedOut {
		t.Fatalf("res = %+v", res)
	}
}

func TestJoblogRecordsRemoteHost(t *testing.T) {
	addr := startWorker(t, "hostx", 1, echoRunner("h"))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var log strings.Builder
	spec, _ := core.NewSpec("", 1)
	spec.Joblog = &log
	eng, _ := core.NewEngine(spec, pool)
	if _, _, err := eng.Run(context.Background(), args.Literal("a")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "\thostx\t") {
		t.Fatalf("joblog missing remote host: %q", log.String())
	}
	entries, err := core.ParseJoblog(strings.NewReader(log.String()))
	if err != nil || len(entries) != 1 || entries[0].Host != "hostx" {
		t.Fatalf("entries = %+v err=%v", entries, err)
	}
}

// BenchmarkPoolDispatch measures remote job round-trips per second over
// loopback — the distributed analogue of Fig 3's launch-rate ceiling —
// with the engine at the pool's credit window, as gopar -S runs it. It
// also reports the wire's coalescing: jobs per coordinator frame and
// framed bytes (both directions) per job.
func BenchmarkPoolDispatch(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	noop := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		return nil, nil
	})
	go Serve(ctx, l, WorkerConfig{Name: "bench", Slots: 8, Runner: noop})
	pool, err := Dial([]WorkerSpec{{Addr: l.Addr().String()}})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()

	spec, _ := core.NewSpec("", pool.Window())
	eng, _ := core.NewEngine(spec, pool)
	items := make([]string, b.N)
	w := pool.Wire()
	frames, bytes := w.FramesSent(), w.BytesSent()+w.BytesReceived()
	b.ResetTimer()
	start := time.Now()
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil || stats.Succeeded != b.N {
		b.Fatalf("stats=%+v err=%v", stats, err)
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/s")
	b.ReportMetric(float64(b.N)/float64(w.FramesSent()-frames), "jobs/frame")
	b.ReportMetric(float64(w.BytesSent()+w.BytesReceived()-bytes)/float64(b.N), "bytes/job")
}
