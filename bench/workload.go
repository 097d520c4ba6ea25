package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// runCtx is what one workload run is given: the seed its inputs are
// made from, how much work to measure, whether to trace, and where it
// may write.
type runCtx struct {
	seed uint64
	// seconds is the run budget. Job counts are constants of the
	// benchmark per second of budget (sized on the two-core reference
	// box so that a run measures for about this long); they are not
	// derived from how fast the run turns out to be, so every run of a
	// workload does the same work.
	seconds float64
	traced  bool
	slots   int    // load-generator width: engine slots / client connections
	workDir string // scratch; removed by the caller
	outDir  string // trace files
}

// count scales a per-ten-seconds constant to the run budget.
func (c *runCtx) count(perTenSeconds int) int { return scale(float64(perTenSeconds), c.seconds) }

// warmup is a kind's warm-up job count at this budget: all of it from
// one second up, a share of it below, so that the smoke test's set-ups
// do not fork 1 500 processes to measure 180.
func (c *runCtx) warmup(full int) int { return min(full, c.count(10*full)) }

// scale is perTenSeconds for a budget of seconds, at least 1.
func scale(perTenSeconds, seconds float64) int {
	return max(int(math.Round(perTenSeconds*seconds/10)), 1)
}

// tempDir makes a fresh directory under the run's scratch space.
func (c *runCtx) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(c.workDir, prefix)
}

// check is one oracle verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	checks            []check
	// report is the human-readable part: ledger tables, sample counts,
	// the percentile the tail metric used.
	report []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) notef(format string, a ...any) {
	o.report = append(o.report, fmt.Sprintf(format, a...))
}

func (o *outcome) checkf(name string, ok bool, format string, a ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, a...)})
}

func (o *outcome) correct() bool {
	for _, ck := range o.checks {
		if !ck.ok {
			return false
		}
	}
	return o.failed == 0
}

// metricNames returns the outcome's metric names, sorted.
func (o *outcome) metricNames() []string {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type workload struct {
	name string
	run  func(c *runCtx) (*outcome, error)
}

// workloads is the benchmark, in the order BENCHMARK.json lists it
// (which also says why each is there).
var workloads = []workload{
	{"local_exec", runLocalExec},
	{"local_dispatch", runLocalDispatch},
	{"service_exec", runServiceExec},
	{"service_noop", runServiceNoop},
	{"service_restart", runServiceRestart},
	{"sim_fig1", runSimFig1},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median. One set-up of tens of milliseconds swings too much from
// run to run to gate on.
const setupRepeats = 3

// medianSetup runs setup setupRepeats times, tears down all but the
// last, and returns the last environment with the median duration. It
// loads the cores for a tenth of the run budget first, a second at most:
// a box that has idled (between runs, or through the run before's open
// loop) takes about that long to give its vCPUs their full speed back, and
// set-ups timed across that ramp read 0.55 s or 0.33 s run by run.
func medianSetup[E any](c *runCtx, setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	spinUp(min(time.Duration(c.seconds*float64(time.Second)/10), time.Second))
	durs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(env)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			var zero E
			return zero, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		env = e
	}
	return env, median(durs), nil
}

// spinUp keeps every core busy for d.
func spinUp(d time.Duration) {
	var wg sync.WaitGroup
	until := time.Now().Add(d)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
			}
		}()
	}
	wg.Wait()
}

// window brackets a timed window and turns the counter deltas into the
// end-to-end and process metrics every workload reports.
type window struct {
	before, after usage
}

func (w *window) begin() { w.before = readUsage() }
func (w *window) end()   { w.after = readUsage() }

func (w *window) wall() time.Duration { return w.after.wall.Sub(w.before.wall) }

// rateWindows is how many equal shares of a timed window's jobs its
// throughput and CPU cost are measured over. On the shared two-core
// reference box a run is hit by stretches of stolen time that move a
// whole-window mean by several percent; jobs_per_s and cpu_us_per_job
// are medians over the shares, which a stretch shorter than half the
// window leaves alone. (The cheapest share was tried for the CPU cost
// and spread twice as wide between runs as the median does: an extreme
// of eight is set by one share.)
const rateWindows = 8

// progress records the clock and the process's CPU time each time a
// further share of a timed window's jobs is done.
type progress struct {
	every int // jobs per share
	done  []int
	at    []time.Time
	cpu   []time.Duration
}

// newProgress starts the record now, for a window of n jobs measured
// in the given number of shares.
func newProgress(n, shares int) *progress {
	p := &progress{every: max(n/shares, 1)}
	p.mark(0)
	return p
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *progress) mark(done int) {
	p.done = append(p.done, done)
	p.at = append(p.at, time.Now())
	p.cpu = append(p.cpu, cpuTime())
}

// advance marks every share boundary that done has reached. Callers
// that see each job (OnResult) hit boundaries exactly; pollers overshoot
// by a poll interval, which the share's own job count absorbs.
func (p *progress) advance(done int) {
	if last := p.done[len(p.done)-1]; done >= last+p.every {
		p.mark(done)
	}
}

// endToEnd stores jobs_per_s and cpu_us_per_job, each the median over
// the shares.
func (p *progress) endToEnd(o *outcome) {
	var rates, cpus []float64
	for i := 1; i < len(p.done); i++ {
		jobs := float64(p.done[i] - p.done[i-1])
		rates = append(rates, jobs/p.at[i].Sub(p.at[i-1]).Seconds())
		cpus = append(cpus, float64(p.cpu[i]-p.cpu[i-1])/1e3/jobs)
	}
	o.set("jobs_per_s", median(rates))
	o.set("cpu_us_per_job", median(cpus))
	o.notef("jobs_per_s and cpu_us_per_job are medians of %d shares of %d jobs: %.4g jobs/s; %.4g us/job", len(rates), p.every, rates, cpus)
}

func (w *window) process(o *outcome, jobs int) {
	o.set("proc.allocs_per_job", float64(w.after.mallocs-w.before.mallocs)/float64(jobs))
	o.set("proc.gc_pause_ms_total", float64(w.after.gcPause-w.before.gcPause)/1e6)
}

// latencies stores the two latency metrics from per-job samples in
// milliseconds, and notes the sample count and percentile used.
func latencies(o *outcome, samplesMS []float64, windows int) {
	o.set("latency_p50_ms", median(samplesMS))
	tail, p := windowedTail(samplesMS, windows)
	o.set("latency_p99_ms", tail)
	o.notef("latency: %d samples; tail is p%.4g (lower quartile of %d windows)", len(samplesMS), p*100, max(windows, 1))
}

// dirSize returns the total size and the number of regular files under
// root.
func dirSize(root string) (bytes int64, files int) {
	// Walk errors mean a file vanished mid-walk; the sizes are
	// informational, so what was seen is reported.
	_ = filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files
}
