package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/args"
)

// sleepFunc returns a FuncRunner that sleeps d then echoes its args.
func sleepFunc(d time.Duration) FuncRunner {
	return func(ctx context.Context, job *Job) ([]byte, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return []byte(strings.Join(job.Args, " ") + "\n"), nil
	}
}

func mustSpec(t *testing.T, cmd string, jobs int) *Spec {
	t.Helper()
	s, err := NewSpec(cmd, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, s *Spec, r Runner, src args.Source) (Stats, []Result) {
	t.Helper()
	e, err := NewEngine(s, r)
	if err != nil {
		t.Fatal(err)
	}
	stats, results, err := e.Run(context.Background(), src)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats, results
}

func TestEngineBasicFunc(t *testing.T) {
	s := mustSpec(t, "", 4)
	s.Template = nil
	s.CollectResults = true
	stats, results := run(t, s, sleepFunc(time.Millisecond), args.Literal("a", "b", "c", "d", "e"))
	if stats.Total != 5 || stats.Succeeded != 5 || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		seen[string(bytes.TrimSpace(r.Stdout))] = true
		if r.Job.Slot < 1 || r.Job.Slot > 4 {
			t.Fatalf("slot %d out of range", r.Job.Slot)
		}
	}
	for _, want := range []string{"a", "b", "c", "d", "e"} {
		if !seen[want] {
			t.Fatalf("missing output for %q", want)
		}
	}
}

func TestEngineConcurrencyBounded(t *testing.T) {
	var cur, max atomic.Int64
	var mu sync.Mutex
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		n := cur.Add(1)
		mu.Lock()
		if n > max.Load() {
			max.Store(n)
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return nil, nil
	})
	s := mustSpec(t, "", 3)
	items := make([]string, 20)
	for i := range items {
		items[i] = fmt.Sprint(i)
	}
	stats, _ := run(t, s, runner, args.Literal(items...))
	if stats.Succeeded != 20 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := max.Load(); got > 3 {
		t.Fatalf("max concurrency %d > slots 3", got)
	}
}

func TestEngineSlotsReused(t *testing.T) {
	slots := map[int]int{}
	var mu sync.Mutex
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		mu.Lock()
		slots[job.Slot]++
		mu.Unlock()
		return nil, nil
	})
	s := mustSpec(t, "", 2)
	items := make([]string, 10)
	stats, _ := run(t, s, runner, args.Literal(items...))
	if stats.Succeeded != 10 {
		t.Fatalf("stats = %+v", stats)
	}
	total := 0
	for slot, n := range slots {
		if slot != 1 && slot != 2 {
			t.Fatalf("unexpected slot %d", slot)
		}
		total += n
	}
	if total != 10 {
		t.Fatalf("slot uses = %d", total)
	}
}

func TestEngineKeepOrder(t *testing.T) {
	// Jobs finish in reverse order (first is slowest); keep-order must
	// still release results in input order.
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		d := time.Duration(50-10*job.Seq) * time.Millisecond
		if d < 0 {
			d = 0
		}
		time.Sleep(d)
		return []byte(job.Args[0] + "\n"), nil
	})
	var buf bytes.Buffer
	var order []int
	s := mustSpec(t, "", 4)
	s.KeepOrder = true
	s.Out = &buf
	s.OnResult = func(r Result) { order = append(order, r.Job.Seq) }
	run(t, s, runner, args.Literal("1", "2", "3", "4"))
	if got := buf.String(); got != "1\n2\n3\n4\n" {
		t.Fatalf("output = %q", got)
	}
	for i, seq := range order {
		if seq != i+1 {
			t.Fatalf("OnResult order = %v", order)
		}
	}
}

func TestEngineUnorderedGroupsOutput(t *testing.T) {
	// Each job writes two lines; grouping means the two lines stay
	// adjacent even with concurrency.
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte(job.Args[0] + "-l1\n" + job.Args[0] + "-l2\n"), nil
	})
	var buf bytes.Buffer
	s := mustSpec(t, "", 8)
	s.Out = &buf
	run(t, s, runner, args.Literal("a", "b", "c", "d", "e", "f"))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 12 {
		t.Fatalf("lines = %d", len(lines))
	}
	for i := 0; i < len(lines); i += 2 {
		p1 := strings.TrimSuffix(lines[i], "-l1")
		p2 := strings.TrimSuffix(lines[i+1], "-l2")
		if p1 != p2 {
			t.Fatalf("output not grouped: %v", lines)
		}
	}
}

func TestEngineRetries(t *testing.T) {
	var mu sync.Mutex
	failures := map[int]int{}
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		failures[job.Seq]++
		if failures[job.Seq] < 3 {
			return nil, errors.New("transient")
		}
		return nil, nil
	})
	s := mustSpec(t, "", 2)
	s.Retries = 3
	s.CollectResults = true
	stats, results := run(t, s, runner, args.Literal("x", "y"))
	if stats.Succeeded != 2 || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Retries != 4 { // 2 jobs x 2 extra attempts
		t.Fatalf("retries = %d, want 4", stats.Retries)
	}
	for _, r := range results {
		if r.Attempts != 3 {
			t.Fatalf("attempts = %d", r.Attempts)
		}
	}
}

func TestEngineRetriesExhausted(t *testing.T) {
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		return nil, errors.New("always fails")
	})
	s := mustSpec(t, "", 1)
	s.Retries = 2
	stats, _ := run(t, s, runner, args.Literal("x"))
	if stats.Failed != 1 || stats.Succeeded != 0 || stats.Retries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestEngineTimeout(t *testing.T) {
	s := mustSpec(t, "", 2)
	s.Timeout = 10 * time.Millisecond
	s.CollectResults = true
	stats, results := run(t, s, sleepFunc(5*time.Second), args.Literal("slow"))
	if stats.Failed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if !results[0].TimedOut {
		t.Fatal("TimedOut not set")
	}
}

func TestEngineHaltSoon(t *testing.T) {
	var ran atomic.Int64
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return nil, errors.New("fail")
	})
	s := mustSpec(t, "", 1) // serial so the halt takes effect deterministically
	s.Halt = HaltPolicy{When: HaltSoon, Threshold: 2}
	items := make([]string, 50)
	stats, _ := run(t, s, runner, args.Literal(items...))
	if stats.Failed < 2 {
		t.Fatalf("failed = %d, want >= 2", stats.Failed)
	}
	if got := ran.Load(); got > 10 {
		t.Fatalf("ran %d jobs after halt-soon threshold 2", got)
	}
}

func TestEngineHaltNowCancelsRunning(t *testing.T) {
	started := make(chan struct{}, 16)
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		if job.Seq == 1 {
			return nil, errors.New("fail fast")
		}
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, nil
		}
	})
	s := mustSpec(t, "", 4)
	s.Halt = HaltPolicy{When: HaltNow, Threshold: 1}
	e, _ := NewEngine(s, runner)
	done := make(chan Stats, 1)
	go func() {
		stats, _, _ := e.Run(context.Background(), args.Literal("a", "b", "c", "d"))
		done <- stats
	}()
	select {
	case stats := <-done:
		if stats.Failed < 1 {
			t.Fatalf("stats = %+v", stats)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("halt-now did not cancel running jobs")
	}
}

func TestEngineHaltOnSuccess(t *testing.T) {
	// --halt now,success=1: stop as soon as anything succeeds.
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		if job.Seq == 3 {
			return []byte("winner\n"), nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, nil
		}
	})
	s := mustSpec(t, "", 4)
	s.Halt = HaltPolicy{When: HaltNow, Threshold: 1, OnSuccess: true}
	e, _ := NewEngine(s, runner)
	done := make(chan Stats, 1)
	go func() {
		stats, _, _ := e.Run(context.Background(), args.Literal("a", "b", "c", "d"))
		done <- stats
	}()
	select {
	case stats := <-done:
		if stats.Succeeded < 1 {
			t.Fatalf("stats = %+v", stats)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("halt-on-success did not terminate the run")
	}
}

func TestEngineResume(t *testing.T) {
	var ran []int
	var mu sync.Mutex
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		mu.Lock()
		ran = append(ran, job.Seq)
		mu.Unlock()
		return nil, nil
	})
	s := mustSpec(t, "", 1)
	s.ResumeFrom = map[int]bool{1: true, 3: true}
	stats, _ := run(t, s, runner, args.Literal("a", "b", "c", "d"))
	if stats.Skipped != 2 || stats.Succeeded != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(ran) != 2 || ran[0] != 2 || ran[1] != 4 {
		t.Fatalf("ran seqs = %v", ran)
	}
}

func TestEngineKeepOrderWithResume(t *testing.T) {
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte(job.Args[0] + "\n"), nil
	})
	var buf bytes.Buffer
	s := mustSpec(t, "", 4)
	s.KeepOrder = true
	s.Out = &buf
	s.ResumeFrom = map[int]bool{2: true}
	run(t, s, runner, args.Literal("a", "b", "c"))
	if got := buf.String(); got != "a\nc\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestEngineDryRun(t *testing.T) {
	var buf bytes.Buffer
	s := mustSpec(t, "process --in {} --out {.}.out", 2)
	s.DryRun = true
	s.Out = &buf
	s.KeepOrder = true
	stats, _ := run(t, s, nil, args.Literal("a.txt", "b.txt"))
	want := "process --in a.txt --out a.out\nprocess --in b.txt --out b.out\n"
	if buf.String() != want {
		t.Fatalf("dry-run output = %q, want %q", buf.String(), want)
	}
	if stats.Succeeded != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestEngineAppendsArgsWhenNoPlaceholder(t *testing.T) {
	var buf bytes.Buffer
	s := mustSpec(t, "echo", 1)
	s.DryRun = true
	s.Out = &buf
	run(t, s, nil, args.Literal("x"))
	if got := strings.TrimSpace(buf.String()); got != "echo x" {
		t.Fatalf("got %q, want %q", got, "echo x")
	}
}

func TestEngineSlotEnvGPUIsolation(t *testing.T) {
	// The paper's Celeritas pattern: each slot pinned to one GPU.
	var mu sync.Mutex
	gpuByJob := map[int]string{}
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		mu.Lock()
		for _, kv := range job.Env {
			if strings.HasPrefix(kv, "HIP_VISIBLE_DEVICES=") {
				gpuByJob[job.Seq] = strings.TrimPrefix(kv, "HIP_VISIBLE_DEVICES=")
			}
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return nil, nil
	})
	s := mustSpec(t, "", 8)
	s.SlotEnv = func(slot int) []string {
		return []string{fmt.Sprintf("HIP_VISIBLE_DEVICES=%d", slot-1)}
	}
	items := make([]string, 16)
	run(t, s, runner, args.Literal(items...))
	if len(gpuByJob) != 16 {
		t.Fatalf("gpu bindings = %d", len(gpuByJob))
	}
	for seq, gpu := range gpuByJob {
		if gpu == "" {
			t.Fatalf("job %d missing GPU binding", seq)
		}
	}
}

func TestEngineTagOutput(t *testing.T) {
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte("line1\nline2\n"), nil
	})
	var buf bytes.Buffer
	s := mustSpec(t, "", 1)
	s.Tag = true
	s.Out = &buf
	run(t, s, runner, args.Literal("myarg"))
	want := "myarg\tline1\nmyarg\tline2\n"
	if buf.String() != want {
		t.Fatalf("tagged output = %q, want %q", buf.String(), want)
	}
}

func TestEngineInputError(t *testing.T) {
	bad := args.SourceFunc(func() ([]string, error) {
		return nil, errors.New("disk on fire")
	})
	s := mustSpec(t, "", 2)
	e, _ := NewEngine(s, sleepFunc(0))
	stats, _, err := e.Run(context.Background(), bad)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err = %v", err)
	}
	if stats.InputErr == nil {
		t.Fatal("InputErr not recorded")
	}
}

func TestEngineTemplateRenderError(t *testing.T) {
	s := mustSpec(t, "cmd {2}", 1)
	e, _ := NewEngine(s, sleepFunc(0))
	_, _, err := e.Run(context.Background(), args.Literal("only-one"))
	if err == nil {
		t.Fatal("want render error")
	}
}

func TestEngineContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	runner := FuncRunner(func(rctx context.Context, job *Job) ([]byte, error) {
		cancel()
		<-rctx.Done()
		return nil, rctx.Err()
	})
	s := mustSpec(t, "", 1)
	e, _ := NewEngine(s, runner)
	_, _, err := e.Run(ctx, args.Literal("a", "b", "c"))
	if err == nil {
		t.Fatal("want cancellation error")
	}
}

func TestEngineEmptySource(t *testing.T) {
	s := mustSpec(t, "echo {}", 4)
	stats, _ := run(t, s, sleepFunc(0), args.Literal())
	if stats.Total != 0 || stats.Done() != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestEngineInvalidSpec(t *testing.T) {
	if _, err := NewEngine(nil, nil); err == nil {
		t.Fatal("nil spec accepted")
	}
	s := mustSpec(t, "echo", 0)
	if _, err := NewEngine(s, nil); err == nil {
		t.Fatal("0 jobs accepted")
	}
}

func TestEngineSeqNumbering(t *testing.T) {
	var seqs []int
	var mu sync.Mutex
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		mu.Lock()
		seqs = append(seqs, job.Seq)
		mu.Unlock()
		return nil, nil
	})
	s := mustSpec(t, "", 1)
	run(t, s, runner, args.Literal("a", "b", "c"))
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("seqs = %v", seqs)
		}
	}
}

// Property: for any job count and slot count, all jobs run exactly once
// and succeed.
func TestPropertyAllJobsRunOnce(t *testing.T) {
	f := func(n16 uint16, j8 uint8) bool {
		n := int(n16 % 100)
		j := int(j8%16) + 1
		var count atomic.Int64
		runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
			count.Add(1)
			return nil, nil
		})
		items := make([]string, n)
		s, _ := NewSpec("", j)
		e, _ := NewEngine(s, runner)
		stats, _, err := e.Run(context.Background(), args.Literal(items...))
		return err == nil && stats.Succeeded == n && int(count.Load()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: keep-order emission order equals input order regardless of
// per-job timing.
func TestPropertyKeepOrder(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 || len(delays) > 24 {
			return true
		}
		runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
			time.Sleep(time.Duration(delays[job.Seq-1]%5) * time.Millisecond)
			return nil, nil
		})
		var order []int
		s, _ := NewSpec("", 6)
		s.KeepOrder = true
		s.OnResult = func(r Result) { order = append(order, r.Job.Seq) }
		items := make([]string, len(delays))
		e, _ := NewEngine(s, runner)
		if _, _, err := e.Run(context.Background(), args.Literal(items...)); err != nil {
			return false
		}
		for i, seq := range order {
			if seq != i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineDispatchFunc(b *testing.B) {
	// Measures pure engine overhead: how fast can slots cycle through
	// trivial in-process jobs. Compare against Fig 3's 470/s for
	// perl GNU Parallel launching real processes.
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) { return nil, nil })
	items := make([]string, b.N)
	s, _ := NewSpec("", 8)
	e, _ := NewEngine(s, runner)
	b.ResetTimer()
	stats, _, err := e.Run(context.Background(), args.Literal(items...))
	if err != nil || stats.Succeeded != b.N {
		b.Fatalf("stats=%+v err=%v", stats, err)
	}
}

func BenchmarkEngineKeepOrderOverhead(b *testing.B) {
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) { return nil, nil })
	items := make([]string, b.N)
	s, _ := NewSpec("", 8)
	s.KeepOrder = true
	e, _ := NewEngine(s, runner)
	b.ResetTimer()
	if _, _, err := e.Run(context.Background(), args.Literal(items...)); err != nil {
		b.Fatal(err)
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)

// selfTimedRunner is a TimeoutRunner that records the timeout it was
// handed and whether its context carried a deadline.
type selfTimedRunner struct {
	got         atomic.Int64
	hadDeadline atomic.Bool
}

func (r *selfTimedRunner) Run(ctx context.Context, job *Job) Result {
	return r.RunTimeout(ctx, job, 0)
}

func (r *selfTimedRunner) RunTimeout(ctx context.Context, job *Job, timeout time.Duration) Result {
	r.got.Store(int64(timeout))
	_, dl := ctx.Deadline()
	r.hadDeadline.Store(dl)
	return Result{Job: *job, ExitCode: -1, TimedOut: job.Args[0] == "slow"}
}

// TestEngineHandsTimeoutToTimeoutRunner: a TimeoutRunner gets
// Spec.Timeout itself instead of a context deadline, and its TimedOut
// verdict is the engine's.
func TestEngineHandsTimeoutToTimeoutRunner(t *testing.T) {
	r := &selfTimedRunner{}
	spec, _ := NewSpec("", 1)
	spec.Timeout = 300 * time.Millisecond
	var results []Result
	spec.OnResult = func(res Result) { results = append(results, res) }
	eng, _ := NewEngine(spec, r)
	if _, _, err := eng.Run(context.Background(), args.Literal("slow")); err != nil {
		t.Fatal(err)
	}
	if time.Duration(r.got.Load()) != spec.Timeout || r.hadDeadline.Load() {
		t.Fatalf("runner got timeout %v, deadline on ctx %v", time.Duration(r.got.Load()), r.hadDeadline.Load())
	}
	if len(results) != 1 || !results[0].TimedOut || !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("results = %+v", results)
	}
}
