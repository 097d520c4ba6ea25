package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/jobd"
	"repro/internal/span"
	"repro/internal/wal"
)

// The service workloads run the whole path in one process: jobd.Client
// → loopback HTTP → jobd.Server (mq topic, WAL at sync=interval,
// fair-share scheduler) → dist.Pool (v3) → loopback TCP → dist.Serve
// worker → Runner, and the completion back to the client's long-poll.
//
// A run has two phases. "paced" is an open loop: single-command
// submits at a fixed rate for half the run budget, each timed from when
// it was due until the submitting client sees it terminal. "sat" is a
// closed loop: the clients submit a fixed number of jobs in batches as
// fast as acks return, and a round of it ends when all are terminal.
// Constants are per ten seconds of run budget on the reference box.
type serviceKind struct {
	name      string
	exec      bool
	pacedRate float64 // submits/s
	satPer10s int     // sat-phase jobs
	// satRound is the jobs of one round of the untraced sat phase, which
	// runs satPer10s in rounds of this many. Acks return faster than jobs
	// run, so a round is a burst of submits and then a drain; only a whole
	// round is the same work every time, and the medians are over rounds.
	satRound int
	batch    int
	warm     int
	// tailWindow is the paced samples per window of the windowed tail.
	tailWindow int
	// pacedOnly makes the untraced run the paced phase alone, for the
	// whole budget, with jobs_per_s and cpu_us_per_job taken from it.
	pacedOnly bool
}

var (
	// service_exec is gated on its open loop only. Its sat phase is
	// bound by the box's own fork/exec rate, which on the shared
	// reference VM sits in one of two states for tens of seconds at a
	// time (1 900 or 1 500 jobs/s, with the service's own CPU per job
	// 215 or 335 us): ten runs of it spread by 12 to 25 %, more than any
	// bound may be. local_exec gates fork-bound throughput and
	// service_noop the service's saturated path; the traced run still
	// measures service_exec's sat phase and prints its ledger.
	serviceExecKind = serviceKind{name: "service_exec", exec: true, pacedRate: 200, satPer10s: 8_000, satRound: 8_000, batch: 64, warm: 500, tailWindow: 400, pacedOnly: true}
	serviceNoopKind = serviceKind{name: "service_noop", pacedRate: 1000, satPer10s: 300_000, satRound: 30_000, batch: 32, warm: 5000, tailWindow: 1000}
)

const (
	serviceQueue = "bench"
	// jobTimeout is how long a job may take to become terminal before
	// it counts as failed.
	jobTimeout = 5 * time.Second
)

// serviceCommand is the n-th command a service run submits: `true`
// with its number and an argument drawn from the seed, so a seed names
// one input set and no two commands of a run are equal.
func serviceCommand(seed uint64, n int) string {
	s := splitmix(seed ^ uint64(n)*0x9e3779b97f4a7c15)
	return "true " + strconv.Itoa(n) + " " + strconv.FormatUint(s.next()>>32, 16)
}

func runServiceExec(c *runCtx) (*outcome, error) { return runService(c, serviceExecKind) }
func runServiceNoop(c *runCtx) (*outcome, error) { return runService(c, serviceNoopKind) }

// countingRunner is the worker-side payload wrapper every service run
// has, traced or not: it counts executions per seq, which is the
// exactly-once oracle.
type countingRunner struct {
	inner core.Runner
	runs  []atomic.Uint32
}

// notOnce counts the seqs in [1, total] executed other than once.
func (r *countingRunner) notOnce(total int) (wrong int) {
	for seq := 1; seq <= total; seq++ {
		if r.runs[seq].Load() != 1 {
			wrong++
		}
	}
	return wrong
}

func (r *countingRunner) Run(ctx context.Context, job *core.Job) core.Result {
	if job.Seq < len(r.runs) {
		r.runs[job.Seq].Add(1)
	}
	return r.inner.Run(ctx, job)
}

// serviceEnv is a running service: worker, pool, jobd, HTTP listener,
// client.
type serviceEnv struct {
	c    *runCtx
	dir  string
	cfg  jobd.Config
	srv  *jobd.Server
	http *http.Server

	workerCancel context.CancelFunc
	workerDone   chan struct{}
	pool         *dist.Pool
	client       *jobd.Client
	transport    *http.Transport
	// observer watches the queue's stats on a connection of its own, so
	// that watching does not take one of the load generator's.
	observer          *jobd.Client
	observerTransport *http.Transport

	counter *countingRunner
	warmed  int // jobs the warm-up submitted; timed seqs start after it

	// traced only
	tr        *tracer
	rtt       *timedTransport
	coordRun  *timedRunner
	workerRun *timedRunner
}

// serveHTTP puts srv's API on a fresh loopback listener and returns a
// client for it limited to the load generator's width.
func (e *serviceEnv) serveHTTP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.http = &http.Server{Handler: e.srv.Handler()}
	go e.http.Serve(ln) // returns when stopService closes the server
	e.transport = &http.Transport{MaxConnsPerHost: e.c.slots, MaxIdleConnsPerHost: e.c.slots}
	var rt http.RoundTripper = e.transport
	if e.tr != nil {
		// One recorder for the run's life: the phases slice it by time.
		if e.rtt == nil {
			e.rtt = &timedTransport{tr: e.tr}
		}
		e.rtt.inner = rt
		rt = e.rtt
	}
	base := "http://" + ln.Addr().String()
	e.client = jobd.NewClient(base, &http.Client{Transport: rt})
	e.observerTransport = &http.Transport{MaxConnsPerHost: 1}
	e.observer = jobd.NewClient(base, &http.Client{Transport: e.observerTransport})
	return nil
}

// stopService closes the HTTP front and the job server, leaving the
// worker and pool up (a restart reuses them).
func (e *serviceEnv) stopService() error {
	if e.http != nil {
		e.http.Close()
		e.transport.CloseIdleConnections()
		e.observerTransport.CloseIdleConnections()
		e.http = nil
	}
	if e.srv == nil {
		return nil
	}
	err := e.srv.Close()
	e.srv = nil
	return err
}

func (e *serviceEnv) close() {
	if e == nil {
		return
	}
	e.stopService()
	if e.pool != nil {
		e.pool.Close()
	}
	if e.workerCancel != nil {
		e.workerCancel()
		<-e.workerDone
	}
}

// setupService brings the whole path up and warms it. maxSeq sizes the
// per-seq observation arrays.
func setupService(c *runCtx, k serviceKind, maxSeq int, tr *tracer) (env *serviceEnv, err error) {
	e := &serviceEnv{c: c, tr: tr, warmed: k.warm}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.dir, err = c.tempDir("jobd-"); err != nil {
		return nil, err
	}

	var payload core.Runner = noopRunner
	if k.exec {
		payload = &core.ExecRunner{DiscardOutput: true}
	}
	if tr != nil {
		e.workerRun = newTimedRunner(payload, "worker.run", "dist.pool_run", tr, maxSeq)
		payload = e.workerRun
	}
	e.counter = &countingRunner{inner: payload, runs: make([]atomic.Uint32, maxSeq+1)}

	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(context.Background())
	e.workerCancel, e.workerDone = cancel, make(chan struct{})
	go func() {
		defer close(e.workerDone)
		// Serve returns once wctx is cancelled; close() waits for it.
		_ = dist.Serve(wctx, wln, dist.WorkerConfig{Name: "bench-worker", Slots: c.slots, Runner: e.counter})
	}()
	if e.pool, err = dist.Dial([]dist.WorkerSpec{{Addr: wln.Addr().String()}}); err != nil {
		return nil, err
	}

	var runner core.Runner = e.pool
	if tr != nil {
		e.coordRun = newTimedRunner(e.pool, "dist.pool_run", "core.exec", tr, maxSeq)
		runner = e.coordRun
	}
	e.cfg = jobd.Config{
		Dir: e.dir, Slots: e.pool.Slots(), WALSync: wal.SyncInterval,
		Runner: runner, Spans: tr != nil, DrainGrace: 2 * time.Second,
	}
	if e.srv, err = jobd.New(e.cfg); err != nil {
		return nil, err
	}
	if err = e.serveHTTP(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err = e.client.Configure(ctx, serviceQueue, jobd.QueueConfig{Quota: c.slots, Weight: 1}); err != nil {
		return nil, err
	}
	cmds := make([]string, k.warm)
	for i := range cmds {
		cmds[i] = serviceCommand(c.seed, i+1)
	}
	if _, err = e.client.Submit(ctx, serviceQueue, cmds...); err != nil {
		return nil, err
	}
	if done, werr := e.waitTerminal(func() int { return k.warm }); werr != nil || done != k.warm {
		return nil, fmt.Errorf("%s warm-up: %d of %d terminal: %v", k.name, done, k.warm, werr)
	}
	return e, nil
}

// pollInterval is how often the observer asks for the queue's stats: a
// two-hundredth of a sat round's duration, and about 1 % of a core.
const pollInterval = 4 * time.Millisecond

// waitTerminal polls the queue's stats until target() jobs are
// terminal, or until none has become terminal for jobTimeout. It
// returns how many are.
func (e *serviceEnv) waitTerminal(target func() int) (int, error) {
	ctx := context.Background()
	last, lastChange := -1, time.Now()
	for {
		st, err := e.observer.QueueStats(ctx, serviceQueue)
		if err != nil {
			return 0, err
		}
		done := st.OK + st.Failed + st.Cancelled
		if done >= target() {
			return done, nil
		}
		if done != last {
			last, lastChange = done, time.Now()
		} else if time.Since(lastChange) > jobTimeout {
			return done, nil
		}
		time.Sleep(pollInterval)
	}
}

// pacedPhase is the open loop.
type pacedPhase struct {
	prog     *progress // by completions
	from, to time.Time
	firstSeq int
	issued   int
	failed   int
	latMS    []float64 // by due order; failed jobs excluded
	// lagMS is how late the generator handed each submit to the
	// clients; clientWaitMS how long it then waited for a free one
	// (both inside the latency, which runs from the due time).
	lagMS, clientWaitMS []float64
	ackAt               []time.Time // by seq - firstSeq: when the client saw it terminal
	achievedHz          float64
}

func (e *serviceEnv) runPaced(rate float64, n, firstSeq int) *pacedPhase {
	type item struct {
		i         int
		due, sent time.Time
	}
	p := &pacedPhase{firstSeq: firstSeq, issued: n, ackAt: make([]time.Time, n)}
	var progMu sync.Mutex
	completed := 0
	lat := make([]float64, n)
	wait := make([]float64, n)
	ok := make([]bool, n)
	// Sized to every send, so the generator never waits for a client.
	ch := make(chan item, n)
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < e.c.slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				wait[it.i] = float64(time.Since(it.sent)) / 1e6
				seqs, err := e.client.Submit(ctx, serviceQueue, serviceCommand(e.c.seed, firstSeq+it.i))
				if err != nil || len(seqs) != 1 {
					continue
				}
				st, err := e.client.Status(ctx, serviceQueue, seqs[0], jobTimeout)
				now := time.Now()
				if err != nil || st.State != "ok" {
					continue
				}
				ok[it.i] = true
				progMu.Lock()
				completed++
				p.prog.advance(completed)
				progMu.Unlock()
				lat[it.i] = float64(now.Sub(it.due)) / 1e6
				if idx := seqs[0] - firstSeq; idx >= 0 && idx < n {
					p.ackAt[idx] = now
				}
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	p.from = time.Now()
	p.prog = newProgress(n, rateWindows)
	var sent time.Time
	for i := 0; i < n; i++ {
		due := p.from.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		sent = time.Now()
		p.lagMS = append(p.lagMS, float64(sent.Sub(due))/1e6)
		ch <- item{i, due, sent}
	}
	close(ch)
	wg.Wait()
	p.to = time.Now()
	for i := 0; i < n; i++ {
		p.clientWaitMS = append(p.clientWaitMS, wait[i])
		if ok[i] {
			p.latMS = append(p.latMS, lat[i])
		} else {
			p.failed++
		}
	}
	if n > 1 {
		p.achievedHz = float64(n-1) / sent.Sub(p.from).Seconds()
	}
	return p
}

// satPhase is the closed loop: one round of it, or several back to
// back.
type satPhase struct {
	win      window
	prog     *progress // one share per round
	from, to time.Time
	firstSeq int
	jobs     int
	terminal int // jobs the service reported terminal
	failed   int // submit errors + never terminal + service-reported failures
}

// runSat is one round: n jobs submitted in batches by the clients, over
// when the observer has seen them all terminal.
func (e *serviceEnv) runSat(n, batch, firstSeq int) (*satPhase, error) {
	p := &satPhase{firstSeq: firstSeq, jobs: n}
	batches := (n + batch - 1) / batch
	var next atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	before, err := e.observer.QueueStats(ctx, serviceQueue)
	if err != nil {
		return nil, err
	}
	baseDone := before.OK + before.Failed + before.Cancelled
	var target atomic.Int64
	target.Store(int64(baseDone + n))
	p.from = time.Now()
	// The observer runs beside the submitting clients from the first
	// submit on.
	var done int
	var waitErr error
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		done, waitErr = e.waitTerminal(func() int { return int(target.Load()) })
	}()
	for w := 0; w < e.c.slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmds := make([]string, 0, batch)
			for {
				b := int(next.Add(1)) - 1
				if b >= batches {
					return
				}
				cmds = cmds[:0]
				for i := b * batch; i < min((b+1)*batch, n); i++ {
					cmds = append(cmds, serviceCommand(e.c.seed, firstSeq+i))
				}
				if seqs, err := e.client.Submit(ctx, serviceQueue, cmds...); err != nil || len(seqs) != len(cmds) {
					target.Add(-int64(len(cmds) - len(seqs)))
				}
			}
		}()
	}
	wg.Wait()
	<-watched
	err = waitErr
	p.to = time.Now()
	if err != nil {
		return nil, err
	}
	after, err := e.observer.QueueStats(ctx, serviceQueue)
	if err != nil {
		return nil, err
	}
	p.terminal = done - baseDone
	okJobs := after.OK - before.OK
	p.failed = n - okJobs
	return p, nil
}

// runSatRounds runs rounds of n jobs back to back as one phase.
func (e *serviceEnv) runSatRounds(rounds, n, batch, firstSeq int) (*satPhase, error) {
	p := &satPhase{firstSeq: firstSeq}
	p.win.begin()
	p.from = time.Now()
	p.prog = newProgress(rounds*n, rounds)
	for r := 0; r < rounds; r++ {
		round, err := e.runSat(n, batch, firstSeq+p.jobs)
		if err != nil {
			return nil, err
		}
		p.jobs += round.jobs
		p.terminal += round.terminal
		p.failed += round.failed
		p.prog.mark(p.jobs)
	}
	p.win.end()
	p.to = time.Now()
	return p, nil
}

// restart stops the job server and opens a new one over the same
// directory, returning how long until its first stats answer that
// accounts for every job as ok.
func (e *serviceEnv) restart(wantOK int) (time.Duration, error) {
	if err := e.stopService(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	srv, err := jobd.New(e.cfg)
	if err != nil {
		return 0, err
	}
	e.srv = srv
	if err := e.serveHTTP(); err != nil {
		return 0, err
	}
	st, err := e.observer.QueueStats(context.Background(), serviceQueue)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if st.OK != wantOK {
		return d, fmt.Errorf("after restart %d of %d jobs are ok (%d pending, %d failed)", st.OK, wantOK, st.Pending, st.Failed)
	}
	return d, nil
}

// phaseMark is a reading of the service's own counters at a phase
// boundary of the traced pass.
type phaseMark struct {
	prom               promSample
	wireBytes, wireOut uint64
}

func (e *serviceEnv) mark() phaseMark {
	w := e.pool.Wire()
	return phaseMark{
		prom:      e.scrape(),
		wireBytes: w.BytesSent() + w.BytesReceived(),
		wireOut:   w.FramesSent(),
	}
}

// servicePass is one paced+sat run and what was seen of it.
type servicePass struct {
	env      *serviceEnv
	paced    *pacedPhase
	sat      *satPhase
	total    int // every job submitted, warm-up included
	resumeMS float64
	replayMS float64
	marks    [4]phaseMark // traced: before paced, after it, after the spin-up, after sat
}

// servicePassRun runs the chosen phases. The paced phase lasts half the
// budget when the sat phase follows it, all of it otherwise. The sat
// phase is run in rounds of k.satRound jobs, or as one round: the
// traced pass and its untraced reference run one, so that the ledger has
// one burst and one drain to account for.
func servicePassRun(k serviceKind, env *serviceEnv, seconds float64, paced, sat, rounds bool) (*servicePass, error) {
	p := &servicePass{env: env}
	traced := env.tr != nil
	next := env.warmed + 1
	if traced {
		p.marks[0] = env.mark()
	}
	if paced {
		n := scale(k.pacedRate*10, seconds)
		if sat {
			n = scale(k.pacedRate*5, seconds)
		}
		p.paced = env.runPaced(k.pacedRate, n, next)
		next += n
	}
	if traced {
		p.marks[1] = env.mark()
	}
	if sat {
		// Spin-up: the paced phase leaves the box mostly idle, and the
		// host takes about a second of load to give the vCPUs their full
		// speed back; a fifth of the sat phase's jobs, untimed, absorbs
		// that.
		spin, err := env.runSat(scale(float64(k.satPer10s)/5, seconds), k.batch, next)
		if err != nil {
			return nil, err
		}
		next += spin.jobs
		if traced {
			p.marks[2] = env.mark()
		}
		jobs := scale(float64(k.satPer10s), seconds)
		per := jobs
		if rounds {
			per = min(k.satRound, jobs)
		}
		if p.sat, err = env.runSatRounds(jobs/per, per, k.batch, next); err != nil {
			return nil, err
		}
		p.sat.failed += spin.failed
		next += p.sat.jobs
	}
	if traced {
		p.marks[3] = env.mark()
	}
	p.total = next - 1
	return p, nil
}

func serviceMaxSeq(k serviceKind, seconds float64) int {
	return k.warm + scale(k.pacedRate*10, seconds) + scale(float64(k.satPer10s)/5, seconds) + scale(float64(k.satPer10s), seconds)
}

func runService(c *runCtx, k serviceKind) (*outcome, error) {
	o := newOutcome()
	k.warm = c.warmup(k.warm)
	if !c.traced {
		maxSeq := serviceMaxSeq(k, c.seconds)
		env, setupS, err := medianSetup(c, func() (*serviceEnv, error) { return setupService(c, k, maxSeq, nil) }, (*serviceEnv).close)
		if err != nil {
			return nil, err
		}
		defer env.close()
		p, err := servicePassRun(k, env, c.seconds, true, !k.pacedOnly, true)
		if err != nil {
			return nil, err
		}
		o.set("peak_rss_mb", peakRSSMB())
		o.set("setup_s", setupS)
		if k.pacedOnly {
			p.paced.prog.endToEnd(o)
		} else {
			p.sat.prog.endToEnd(o)
		}
		latencies(o, p.paced.latMS, len(p.paced.latMS)/k.tailWindow)
		serviceChecks(o, k, p)
		return o, nil
	}

	// Traced run: an untraced sat-only pass for the overhead ratio,
	// then the traced paced+sat pass, both at half the budget.
	half := c.seconds / 2
	maxSeq := serviceMaxSeq(k, half)
	refEnv, err := setupService(c, k, maxSeq, nil)
	if err != nil {
		return nil, err
	}
	ref, err := servicePassRun(k, refEnv, half, false, true, false)
	refEnv.close()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	env, err := setupService(c, k, maxSeq, tr)
	if err != nil {
		return nil, err
	}
	defer env.close()
	p, err := servicePassRun(k, env, half, true, true, false)
	if err != nil {
		return nil, err
	}
	serviceChecks(o, k, p)
	serviceLedger(c, o, k, p, ref)
	if spans, err := env.engineSpans(); err == nil {
		tr.addEngineSpans(spans)
	}
	if err := tr.write(c.outDir, k.name, c.seed, p.total); err != nil {
		return nil, err
	}
	return o, nil
}

// serviceChecks is the oracle: every job ok at the service, executed
// exactly once on the worker, still ok and not re-executed after a
// restart over the same directory, and the queue's WAL replays to the
// same account.
func serviceChecks(o *outcome, k serviceKind, p *servicePass) {
	env := p.env
	timed := 0
	if p.paced != nil {
		timed += p.paced.issued
		o.failed += p.paced.failed
		// A generator that ran late measured its own stall, not the
		// service's: the run is flagged invalid rather than slow. The
		// flag is advisory: a stall of the box must not read as wrong
		// output.
		lagP99 := pct(p.paced.lagMS, 0.99)
		verdict := "valid"
		if lagP99 > 5 || p.paced.achievedHz < 0.99*k.pacedRate {
			verdict = "INVALID (generator late)"
		}
		o.notef("paced %s: generator lag p99 %.3f ms, achieved %.1f of %.0f submits/s, wait for a free client p99 %.3f ms",
			verdict, lagP99, p.paced.achievedHz, k.pacedRate, pct(p.paced.clientWaitMS, 0.99))
		o.checkf(k.name+"/paced-ok", p.paced.failed == 0, "%d of %d paced jobs not ok within %v", p.paced.failed, p.paced.issued, jobTimeout)
	}
	if p.sat != nil {
		timed += p.sat.jobs
		o.failed += p.sat.failed
		o.checkf(k.name+"/all-terminal-ok", p.sat.failed == 0 && p.sat.terminal == p.sat.jobs,
			"sat: %d of %d terminal, %d not ok", p.sat.terminal, p.sat.jobs, p.sat.failed)
	}
	o.attempted += timed

	resume, err := env.restart(p.total)
	p.resumeMS = float64(resume) / 1e6
	o.checkf(k.name+"/restart", err == nil, "jobd.New over the run's directory: %.1f ms to an account of %d ok; err %v", p.resumeMS, p.total, err)

	wrong := env.counter.notOnce(p.total)
	o.checkf(k.name+"/exactly-once", wrong == 0, "%d of %d seqs executed other than once (restart included)", wrong, p.total)
	o.failed += wrong

	if err := env.stopService(); err != nil {
		o.checkf(k.name+"/close", false, "%v", err)
		return
	}
	var st *wal.State
	p.replayMS, st, err = probeWALReplay(filepath.Join(env.dir, serviceQueue, "wal"))
	if err != nil {
		o.checkf(k.name+"/wal-replay", false, "%v", err)
		return
	}
	okDone := len(st.CompletedOK())
	o.checkf(k.name+"/wal-replay", okDone == p.total && len(st.InFlight) == 0,
		"replay: %d of %d completed ok, %d in flight", okDone, p.total, len(st.InFlight))
}

// dirMetrics stores the size of the queue's directory after the run,
// per job submitted to it.
func (e *serviceEnv) dirMetrics(o *outcome, total int) {
	queueDir := filepath.Join(e.dir, serviceQueue)
	dirBytes, dirFiles := dirSize(queueDir)
	walBytes, _ := dirSize(filepath.Join(queueDir, "wal"))
	o.set("jobd.dir_bytes_per_job", float64(dirBytes)/float64(total))
	o.set("jobd.dir_files", float64(dirFiles))
	o.set("wal.bytes_per_job", float64(walBytes)/float64(total))
}

// engineSpans reads the per-queue span file jobd wrote (Config.Spans),
// the service's own OnEvent → span.Recorder seam.
func (e *serviceEnv) engineSpans() ([]span.Span, error) {
	f, err := os.Open(filepath.Join(e.dir, serviceQueue, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return span.Parse(f)
}

// promSample is the registry's text exposition, parsed: full series
// name (labels included) → value.
type promSample map[string]float64

func (e *serviceEnv) scrape() promSample {
	var buf bytes.Buffer
	e.srv.Registry().WriteText(&buf)
	out := promSample{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// histQuantile estimates a quantile of histogram name between two
// scrapes, interpolating inside the bucket as Prometheus does. Seconds.
func histQuantile(before, after promSample, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		i := strings.Index(series, `le="`)
		if i < 0 {
			continue
		}
		leStr := series[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le := math.Inf(1)
		if leStr != "+Inf" {
			le, _ = strconv.ParseFloat(leStr, 64)
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total == 0 {
		return 0
	}
	rank := q * total
	prevLE, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.n == prevN {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevN)/(b.n-prevN)
		}
		prevLE, prevN = b.le, b.n
	}
	return prevLE
}
