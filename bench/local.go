package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/span"
	"repro/internal/tmpl"
	"repro/internal/wal"
)

// Job counts per ten seconds of run budget, sized on the two-core
// reference box so that the timed window lasts about the budget.
const (
	localExecPer10s     = 18_000    // ~1 900 procs/s
	localDispatchPer10s = 6_000_000 // ~630 k jobs/s
)

// A record is a path-like string, a pure function of (seed, index), so
// the generating source needs no slice of them and the oracle can say
// what any seq's command must be.
var recordExts = [...]string{".dat", ".h5", ".txt", ".tar.gz"}

// appendRecord appends record i's path without its last extension and
// returns that extension separately: GNU Parallel's {.} strips exactly
// one, so "x.tar.gz" → "x.tar".
func appendRecord(dst []byte, seed uint64, i int) ([]byte, string) {
	s := splitmix(seed ^ uint64(i)*0x9e3779b97f4a7c15)
	x := s.next()
	dst = append(dst, "/data/run-"...)
	dst = strconv.AppendUint(dst, x%97, 10)
	dst = append(dst, "/shard-"...)
	dst = strconv.AppendUint(dst, (x>>8)%1000, 10)
	dst = append(dst, "/file-"...)
	dst = strconv.AppendInt(dst, int64(i), 10)
	ext := recordExts[(x>>20)%uint64(len(recordExts))]
	if ext == ".tar.gz" {
		dst = append(dst, ".tar"...)
		ext = ".gz"
	}
	return dst, ext
}

// recordSource generates records 1..n on demand.
type recordSource struct {
	seed uint64
	n, i int
	buf  []byte
}

func (s *recordSource) Next() ([]string, error) {
	if s.i >= s.n {
		return nil, io.EOF
	}
	s.i++
	var ext string
	s.buf, ext = appendRecord(s.buf[:0], s.seed, s.i)
	s.buf = append(s.buf, ext...)
	return []string{string(s.buf)}, nil
}

// localKind is what differs between local_exec and local_dispatch.
type localKind struct {
	name     string
	exec     bool
	template string
	per10s   int
	warm     int
	// tracedDivisor shrinks the passes of the traced run, which makes
	// two of them; on a no-op payload a span per job in memory costs
	// more than the job itself.
	tracedDivisor int
	// sampleEvery thins the latency samples: two clock reads per job
	// are nothing beside a fork, and a tenth of a no-op job.
	sampleEvery int
	// expect builds the command the oracle expects for record i.
	expect func(dst []byte, seed uint64, i int) []byte
}

var localExecKind = localKind{
	name: "local_exec", exec: true, template: "true {/.} {#}",
	per10s: localExecPer10s, warm: 500, tracedDivisor: 2, sampleEvery: 1,
	expect: func(dst []byte, seed uint64, i int) []byte {
		dst = append(dst, "true file-"...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		// {/.} is the basename without its last extension.
		if _, ext := appendRecord(nil, seed, i); ext == ".gz" {
			dst = append(dst, ".tar"...)
		}
		dst = append(dst, ' ')
		return strconv.AppendInt(dst, int64(i), 10)
	},
}

var localDispatchKind = localKind{
	name: "local_dispatch", template: "echo {} {.} {#}",
	per10s: localDispatchPer10s, warm: 100_000, tracedDivisor: 8, sampleEvery: 64,
	expect: func(dst []byte, seed uint64, i int) []byte {
		dst = append(dst, "echo "...)
		mark := len(dst)
		var ext string
		dst, ext = appendRecord(dst, seed, i)
		noExt := string(dst[mark:])
		dst = append(dst, ext...)
		dst = append(dst, ' ')
		dst = append(dst, noExt...)
		dst = append(dst, ' ')
		return strconv.AppendInt(dst, int64(i), 10)
	},
}

func runLocalExec(c *runCtx) (*outcome, error)     { return runLocal(c, localExecKind) }
func runLocalDispatch(c *runCtx) (*outcome, error) { return runLocal(c, localDispatchKind) }

// localEnv is what set-up leaves for the timed window.
type localEnv struct {
	template *tmpl.Template
	runner   core.Runner
	log      *wal.Log // local_dispatch only
	logDir   string
}

func (e *localEnv) close() {
	if e != nil && e.log != nil {
		e.log.Close()
	}
}

var noopRunner = core.FuncRunner(func(context.Context, *core.Job) ([]byte, error) { return nil, nil })

func setupLocal(c *runCtx, k localKind) (*localEnv, error) {
	t, err := tmpl.Parse(k.template)
	if err != nil {
		return nil, err
	}
	env := &localEnv{template: t, runner: noopRunner}
	if k.exec {
		env.runner = &core.ExecRunner{DiscardOutput: true}
	} else {
		if env.logDir, err = c.tempDir("wal-"); err != nil {
			return nil, err
		}
		if env.log, _, err = wal.Open(env.logDir, wal.Options{Sync: wal.SyncInterval}); err != nil {
			return nil, err
		}
	}
	// Warm-up: pools, the argv memo, the page cache under the binary.
	// It runs without the WAL so the timed run's log starts at seq 1.
	spec := &core.Spec{Jobs: c.slots, Template: t, Retries: 1, KeepOrder: !k.exec}
	eng, err := core.NewEngine(spec, env.runner)
	if err != nil {
		return nil, err
	}
	st, _, err := eng.Run(context.Background(), &recordSource{seed: c.seed, n: k.warm})
	if err != nil || st.Succeeded != k.warm {
		return nil, fmt.Errorf("%s warm-up: %d of %d ok, err %v", k.name, st.Succeeded, k.warm, err)
	}
	return env, nil
}

// localPass is one engine run over n records and what was seen of it.
type localPass struct {
	n         int
	win       window
	prog      *progress
	ok        int
	badOrder  int // results delivered out of seq order (keep-order)
	badCmd    int // commands that differ from the oracle's
	dupOrLost int // seqs delivered twice or never
	latMS     []float64
	src       *timedSource
	runner    *timedRunner // traced only
	spans     []span.Span  // traced only
	walStats  wal.Stats
	logDir    string
}

func localRunPass(c *runCtx, k localKind, env *localEnv, n int, tr *tracer) (*localPass, error) {
	p := &localPass{n: n, logDir: env.logDir}
	p.src = &timedSource{
		src: &recordSource{seed: c.seed, n: n}, tr: tr, timeAll: tr != nil,
		sampleEvery: k.sampleEvery, handedOut: make([]time.Time, n/k.sampleEvery+1),
	}
	p.latMS = make([]float64, 0, n/k.sampleEvery+1)
	spec := &core.Spec{Jobs: c.slots, Template: env.template, Retries: 1, KeepOrder: !k.exec, WAL: env.log}

	runner := env.runner
	var events *eventTable
	if tr != nil {
		p.runner = newTimedRunner(runner, "core.run", "core.exec", tr, n)
		runner = p.runner
		events = newEventTable(n)
		spec.OnEvent = events.onEvent
	}

	// OnResult is the user-facing end of the launcher: the oracle and
	// the latency clock both stop here.
	seen := make([]bool, n+1)
	next, delivered := 1, 0
	var want []byte
	spec.OnResult = func(res core.Result) {
		seq := res.Job.Seq
		if seq < 1 || seq > n || seen[seq] {
			p.dupOrLost++
			return
		}
		seen[seq] = true
		if res.OK() {
			p.ok++
		}
		delivered++
		p.prog.advance(delivered)
		if seq != next {
			p.badOrder++
		}
		next = seq + 1
		if seq%k.sampleEvery == 0 {
			p.latMS = append(p.latMS, float64(time.Since(p.src.handedOut[seq/k.sampleEvery]))/1e6)
			want = k.expect(want[:0], c.seed, seq)
			if res.Job.Command != string(want) {
				p.badCmd++
			}
		}
	}
	eng, err := core.NewEngine(spec, runner)
	if err != nil {
		return nil, err
	}
	p.win.begin()
	p.prog = newProgress(n, rateWindows)
	_, _, err = eng.Run(context.Background(), p.src)
	p.win.end()
	if err != nil {
		return nil, err
	}
	for seq := 1; seq <= n; seq++ {
		if !seen[seq] {
			p.dupOrLost++
		}
	}
	if k.exec {
		p.badOrder = 0 // unordered by design
	}
	if env.log != nil {
		p.walStats = env.log.Stats()
	}
	if events != nil {
		p.spans = events.spans()
	}
	return p, nil
}

func (p *localPass) failedJobs() int {
	return (p.n - p.ok) + p.badOrder + p.badCmd + p.dupOrLost
}

func runLocal(c *runCtx, k localKind) (*outcome, error) {
	o := newOutcome()
	k.warm = c.warmup(k.warm)
	n := c.count(k.per10s)

	if !c.traced {
		env, setupS, err := medianSetup(c, func() (*localEnv, error) { return setupLocal(c, k) }, (*localEnv).close)
		if err != nil {
			return nil, err
		}
		defer env.close()
		p, err := localRunPass(c, k, env, n, nil)
		if err != nil {
			return nil, err
		}
		o.set("peak_rss_mb", peakRSSMB())
		o.set("setup_s", setupS)
		p.prog.endToEnd(o)
		latencies(o, p.latMS, 8)
		localChecks(o, k, env, p)
		return o, nil
	}

	// Traced run: an untraced pass and a traced pass of the same size,
	// so the tracing overhead is measured and not assumed.
	n = max(n/k.tracedDivisor, 1)
	ref, err := localTracedPass(c, k, n, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	p, err := localTracedPass(c, k, n, tr)
	if err != nil {
		return nil, err
	}
	tr.addEngineSpans(p.spans)
	if err := tr.write(c.outDir, k.name, c.seed, n); err != nil {
		return nil, err
	}
	localChecks(o, k, nil, p)
	localLedger(c, o, k, p, ref)
	return o, nil
}

// localTracedPass gives each pass of the traced run its own set-up, so
// the untraced and traced passes start from the same state.
func localTracedPass(c *runCtx, k localKind, n int, tr *tracer) (*localPass, error) {
	env, err := setupLocal(c, k)
	if err != nil {
		return nil, err
	}
	defer env.close()
	return localRunPass(c, k, env, n, tr)
}

// localChecks is the oracle: every seq delivered exactly once with exit
// 0, in order under keep-order, with the command the template must
// render, and — where there is a log — a replay that agrees.
func localChecks(o *outcome, k localKind, env *localEnv, p *localPass) {
	o.attempted += p.n
	o.failed += p.failedJobs()
	o.checkf(k.name+"/exactly-once", p.dupOrLost == 0 && p.ok == p.n, "%d of %d ok, %d duplicated or lost", p.ok, p.n, p.dupOrLost)
	o.checkf(k.name+"/command", p.badCmd == 0, "%d sampled commands differ from the oracle", p.badCmd)
	if !k.exec {
		o.checkf(k.name+"/keep-order", p.badOrder == 0, "%d results out of order", p.badOrder)
	}
	if env == nil || env.log == nil {
		return
	}
	if err := env.log.Close(); err != nil {
		o.checkf(k.name+"/wal-close", false, "%v", err)
		return
	}
	env.log = nil
	st, err := wal.Replay(env.logDir)
	if err != nil {
		o.checkf(k.name+"/wal-replay", false, "%v", err)
		return
	}
	okDone := len(st.CompletedOK())
	o.checkf(k.name+"/wal-replay", okDone == p.n && len(st.InFlight) == 0,
		"replay: %d of %d completed ok, %d in flight", okDone, p.n, len(st.InFlight))
	if okDone != p.n {
		o.failed += p.n - okDone
	}
}

// slotTimeline tiles each slot's wall time with what was observed from
// outside the engine: the slot took a job (EventStarted) → the Runner
// was called → it returned → the slot took its next job. Over the
// spans with seq in [from, to] it returns the mean nanoseconds per job
// before the call (dispatch) and between return and the next job
// (turnaround: handing the result on and waiting for the pipeline to
// deliver the next job).
func slotTimeline(spans []span.Span, r *timedRunner, slots, from, to int) (dispatchNS, turnaroundNS float64) {
	var sel []span.Span
	for _, s := range spans {
		if s.Seq >= from && s.Seq <= to && s.Seq < len(r.callAt) && s.Slot >= 1 && s.Slot <= slots &&
			!s.Started.IsZero() && r.retAt[s.Seq] != 0 {
			sel = append(sel, s)
		}
	}
	if len(sel) == 0 {
		return 0, 0
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].Started.Before(sel[j].Started) })
	lastRet := make([]int64, slots+1)
	var dispatch, turnaround int64
	for _, s := range sel {
		started := s.Started.UnixNano()
		dispatch += r.callAt[s.Seq] - started
		if lastRet[s.Slot] != 0 {
			turnaround += started - lastRet[s.Slot]
		}
		lastRet[s.Slot] = r.retAt[s.Seq]
	}
	n := float64(len(sel))
	return float64(dispatch) / n, float64(turnaround) / n
}

// localLedger turns the traced pass into the per-layer metrics and the
// table whose rows sum to the end-to-end figure.
func localLedger(c *runCtx, o *outcome, k localKind, p, ref *localPass) {
	jobs := float64(p.n)
	budget := float64(p.win.wall()) * float64(c.slots) / jobs // slot-ns per job = 1e9 x slots / jobs_per_s
	p.win.process(o, p.n)
	o.set("span.trace_overhead_ratio", ref.win.wall().Seconds()/p.win.wall().Seconds())

	a := span.Analyze(p.spans)
	phase := func(name string) span.PhaseStat {
		for _, ps := range a.Phases {
			if ps.Phase == name {
				return ps
			}
		}
		return span.PhaseStat{}
	}
	renderNS := phase(span.PhaseRender).MeanS * 1e9
	o.set("core.dispatch_us_mean", phase(span.PhaseDispatch).MeanS*1e6)
	o.set("core.collect_us_mean", phase(span.PhaseCollect).MeanS*1e6)
	o.set("core.queue_wait_us_p50", phase(span.PhaseQueueWait).P50S*1e6)
	o.set("core.queue_wait_us_p99", phase(span.PhaseQueueWait).P99S*1e6)

	runNS := float64(p.runner.total.Load()) / jobs
	o.set("core.engine_self_ns_per_job", budget-runNS)
	o.set("core.slot_busy_ratio", runNS/budget)
	if k.exec {
		us := p.runner.durationsUS(1, p.n)
		o.set("core.exec_run_us_mean", mean(us))
		o.set("core.exec_run_us_p99", tail(us))
	}

	// Level 1: the slot's timeline, observed from outside. It tiles the
	// budget but for the ramp at both ends of the run.
	dispatchNS, turnaroundNS := slotTimeline(p.spans, p.runner, c.slots, 1, p.n)
	printLedger(o, k.name+" slot timeline, budget 1e9 x slots / jobs_per_s", budget, []ledgerRow{
		{"payload (wrapped Runner)", runNS},
		{"core: slot took job -> Runner called", dispatchNS},
		{"core: Runner returned -> slot took next job", turnaroundNS},
	})

	// Level 2: the pipeline stages a slot waits on between jobs, where
	// their per-job cost can be measured from outside. They run on their
	// own goroutines and compete with the slots for the same cores.
	// What is left of the turnaround is the engine's own machinery
	// (channels, scheduling, the keep-order heap, pools), which only
	// tracing inside the program can split further.
	argsNS := float64(p.src.total) / jobs
	rows := []ledgerRow{{"args.next (wrapped Source)", argsNS}, {"tmpl.render (engine span)", renderNS}}
	if !k.exec {
		o.set("args.next_ns_per_job", argsNS)
		probe := probeRender(c.seed, k.template, p.n)
		o.set("tmpl.render_ns_per_job", probe)
		o.notef("tmpl.render: probe %.0f ns/job, engine's own span mean %.0f ns/job", probe, renderNS)
		walNS := probeWALAppend(c, wal.SyncInterval, p.n)
		o.set("wal.append_ns_per_record", walNS)
		rows = append(rows, ledgerRow{"wal.append x2 (probe)", 2 * walNS})
		if p.walStats.Syncs > 0 {
			o.set("wal.records_per_sync", float64(p.walStats.Appended)/float64(p.walStats.Syncs))
		}
		o.set("wal.syncs_per_kjob", float64(p.walStats.Syncs)/jobs*1e3)
		segBytes, _ := dirSize(p.logDir)
		o.set("wal.bytes_per_job", float64(segBytes)/jobs)
	}
	o.set("core.unattributed_ns_per_job", printLedger(o, k.name+" turnaround", turnaroundNS, rows))
}
