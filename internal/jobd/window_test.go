package jobd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// startPool serves a dist worker with the given slots and runner on
// loopback and returns a pool dialled to it.
func startPool(t *testing.T, slots int, runner core.Runner) *dist.Pool {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go dist.Serve(ctx, l, dist.WorkerConfig{Name: "w", Slots: slots, Runner: runner})
	pool, err := dist.Dial([]dist.WorkerSpec{{Addr: l.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// TestHTTPCancelKillsRemoteProcess: DELETE /v1/jobs on a jobd whose
// runner is a worker pool kills the job's process on the worker.
func TestHTTPCancelKillsRemoteProcess(t *testing.T) {
	pool := startPool(t, 2, &core.ExecRunner{DiscardOutput: true})
	_, c := newAPIServer(t, pool, func(cfg *Config) { cfg.Slots = pool.Slots() })
	pidFile := filepath.Join(t.TempDir(), "pid")
	ctx := context.Background()
	seqs, err := c.Submit(ctx, "remote", fmt.Sprintf("echo $$ > %s; exec sleep 30", pidFile))
	if err != nil {
		t.Fatal(err)
	}
	var pid int
	for deadline := time.Now().Add(10 * time.Second); pid == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the remote job never started")
		}
		if b, err := os.ReadFile(pidFile); err == nil && strings.HasSuffix(string(b), "\n") {
			pid, _ = strconv.Atoi(strings.TrimSpace(string(b)))
		}
	}
	if _, err := c.Cancel(ctx, "remote", seqs[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
			break
		}
		if time.Now().After(deadline) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("remote sleep %d still alive 5s after DELETE", pid)
		}
	}
	if st, err := c.Status(ctx, "remote", seqs[0], 10*time.Second); err != nil || st.State != "cancelled" {
		t.Fatalf("final status %+v, err %v", st, err)
	}
}

// TestWindowedWeightedFairShare: two backlogged queues at weight 3:1
// over a windowed pool execute 3:1 within 10 %, because the scheduler
// charges every credit — prefetched ones included — to its tenant.
func TestWindowedWeightedFairShare(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	pool := startPool(t, 2, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		<-gate
		mu.Lock()
		order = append(order, strings.Clone(job.Command)) // the frame recycles after Run
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		return nil, nil
	}))
	s := newTestServer(t, t.TempDir(), pool, func(c *Config) { c.Slots = pool.Slots() })
	defer s.Close()

	const n = 800
	queues := map[string]*queue{}
	for name, weight := range map[string]int{"heavy": 3, "light": 1} {
		q, err := s.ConfigureQueue(name, QueueConfig{Quota: pool.Slots(), Weight: weight})
		if err != nil {
			t.Fatal(err)
		}
		cmds := make([]string, n)
		for i := range cmds {
			cmds[i] = name
		}
		if _, err := q.Submit(cmds); err != nil {
			t.Fatal(err)
		}
		queues[name] = q
	}
	close(gate)
	for _, q := range queues {
		for seq := 1; seq <= n; seq++ {
			waitTerminal(t, q, seq)
		}
	}
	// Skip the first queue's head start (one window credited before the
	// second queue existed). At 3:1 the heavy queue stays backlogged
	// until about the 1 000th job.
	mu.Lock()
	defer mu.Unlock()
	var heavy, light int
	for _, cmd := range order[100:600] {
		if cmd == "heavy" {
			heavy++
		} else {
			light++
		}
	}
	if ratio := float64(heavy) / float64(light); ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("heavy:light executed %d:%d (%.2f), want 3 ± 10%%", heavy, light, ratio)
	}
}

// TestQuotaBelowWorkerSlots: a queue whose quota is below the worker's
// slots runs without the window, so quota 1 on a 2-slot worker never
// has two jobs executing at once.
func TestQuotaBelowWorkerSlots(t *testing.T) {
	var running, peak atomic.Int32
	pool := startPool(t, 2, core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
		return nil, nil
	}))
	s := newTestServer(t, t.TempDir(), pool, func(c *Config) { c.Slots = pool.Slots() })
	defer s.Close()
	q, err := s.ConfigureQueue("narrow", QueueConfig{Quota: 1, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]string, 50)
	for i := range cmds {
		cmds[i] = "job"
	}
	if _, err := q.Submit(cmds); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= len(cmds); seq++ {
		waitTerminal(t, q, seq)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("quota-1 queue had %d jobs executing at once", p)
	}
	if got := jobsFor(pool, 1); got != 1 {
		t.Fatalf("quota 1 holds %d jobs in flight, want 1", got)
	}
	if got := jobsFor(pool, pool.Slots()); got != pool.Window() {
		t.Fatalf("quota %d holds %d jobs in flight, want the window %d", pool.Slots(), got, pool.Window())
	}
}
