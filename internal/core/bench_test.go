package core

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/args"
	"repro/internal/wal"
)

// BenchmarkDispatchFuncRunner measures the engine's end-to-end per-job
// hot path — input, render, dispatch, execution, collection — with an
// in-process no-op payload, so the number is pure orchestration cost
// (the paper's per-task overhead, with the process fork removed).
func BenchmarkDispatchFuncRunner(b *testing.B) {
	noop := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		return nil, nil
	})
	for _, jobs := range []int{1, 8, 64} {
		b.Run(benchName("jobs", jobs), func(b *testing.B) {
			spec, err := NewSpec("", jobs)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := NewEngine(spec, noop)
			if err != nil {
				b.Fatal(err)
			}
			items := make([]string, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			stats, _, err := eng.Run(context.Background(), args.Literal(items...))
			if err != nil || stats.Succeeded != b.N {
				b.Fatalf("stats=%+v err=%v", stats, err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkDispatchRendered is BenchmarkDispatchFuncRunner with a
// non-trivial command template, exercising the render stage on every
// job in addition to dispatch.
func BenchmarkDispatchRendered(b *testing.B) {
	noop := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		return nil, nil
	})
	spec, err := NewSpec("process --seq {#} --input {} --out {.}.d", 8)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(spec, noop)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]string, b.N)
	for i := range items {
		items[i] = "/data/shard/file.dat"
	}
	b.ReportAllocs()
	b.ResetTimer()
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil || stats.Succeeded != b.N {
		b.Fatalf("stats=%+v err=%v", stats, err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkDispatchKeepOrder isolates the keep-order reordering
// structure's cost on the collector path.
func BenchmarkDispatchKeepOrder(b *testing.B) {
	noop := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		return nil, nil
	})
	spec, err := NewSpec("", 64)
	if err != nil {
		b.Fatal(err)
	}
	spec.KeepOrder = true
	eng, err := NewEngine(spec, noop)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]string, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil || stats.Succeeded != b.N {
		b.Fatalf("stats=%+v err=%v", stats, err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkDispatchWithEvents measures the hot path with an enabled
// but trivially cheap OnEvent hook, the telemetry-on configuration.
func BenchmarkDispatchWithEvents(b *testing.B) {
	noop := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		return nil, nil
	})
	spec, err := NewSpec("", 8)
	if err != nil {
		b.Fatal(err)
	}
	var events atomic.Int64
	spec.OnEvent = func(ev Event) { events.Add(1) }
	eng, err := NewEngine(spec, noop)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]string, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil || stats.Succeeded != b.N {
		b.Fatalf("stats=%+v err=%v", stats, err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkDispatchWAL measures the write-ahead log's tax on the
// dispatch hot path at each sync policy, against the jobs=8 baseline of
// BenchmarkDispatchFuncRunner. sync=off is that baseline re-measured in
// the same process (the -check WAL-overhead gate divides interval by
// off, so both sides must share a run's noise); interval is the default
// group-commit policy the <5% budget applies to; always pays one fsync
// per record and is expected to be dominated by the disk barrier.
func BenchmarkDispatchWAL(b *testing.B) {
	noop := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		return nil, nil
	})
	for _, mode := range []string{"off", "interval", "always"} {
		b.Run("sync="+mode, func(b *testing.B) {
			spec, err := NewSpec("", 8)
			if err != nil {
				b.Fatal(err)
			}
			if mode != "off" {
				pol, err := wal.ParseSyncPolicy(mode)
				if err != nil {
					b.Fatal(err)
				}
				l, _, err := wal.Open(b.TempDir(), wal.Options{Sync: pol})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				spec.WAL = l
			}
			eng, err := NewEngine(spec, noop)
			if err != nil {
				b.Fatal(err)
			}
			items := make([]string, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			stats, _, err := eng.Run(context.Background(), args.Literal(items...))
			if err != nil || stats.Succeeded != b.N {
				b.Fatalf("stats=%+v err=%v", stats, err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkExecSpawn measures the launcher CPU one process start costs,
// from RUSAGE_SELF so the children's own CPU is excluded: through
// ExecRunner in each output mode, and through a bare os.StartProcess +
// Wait of the same argv — the floor a runner's own work adds to. Each
// runs `true` on runtime.NumCPU() goroutines, as the engine's -j nproc
// default would.
func BenchmarkExecSpawn(b *testing.B) {
	path, err := exec.LookPath("true")
	if err != nil {
		b.Skip("no true binary:", err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_RDWR, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer null.Close()
	floorAttr := &os.ProcAttr{Env: os.Environ(), Files: []*os.File{null, null, null}}
	viaRunner := func(r *ExecRunner) func() error {
		job := &Job{Seq: 1, Command: "true"}
		return func() error {
			if res := r.Run(context.Background(), job); !res.OK() {
				return fmt.Errorf("true: err=%v exit=%d", res.Err, res.ExitCode)
			}
			return nil
		}
	}
	for _, c := range []struct {
		name  string
		spawn func() error
	}{
		{"runner/discard", viaRunner(&ExecRunner{DiscardOutput: true})},
		{"runner/capture", viaRunner(&ExecRunner{})},
		{"floor", func() error {
			p, err := os.StartProcess(path, []string{"true"}, floorAttr)
			if err != nil {
				return err
			}
			_, err = p.Wait()
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			if err := c.spawn(); err != nil { // warm the lookup, env and pools
				b.Fatal(err)
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			cpu0 := selfCPU()
			b.ResetTimer()
			for g := 0; g < runtime.NumCPU(); g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if err := c.spawn(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64((selfCPU()-cpu0).Microseconds())/float64(b.N), "cpu-us/proc")
		})
	}
}

// selfCPU is this process's user+system CPU time, children excluded.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
