package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/args"
	"repro/internal/tmpl"
	"repro/internal/wal"
)

// Engine executes jobs from an input source across a fixed pool of slots
// using greedy dispatch: the moment a slot frees, the next job starts.
// This is the execution model whose per-task overhead the paper measures.
//
// The hot path is a staged pipeline over buffered channels — input →
// render workers → per-slot dispatch workers → collector — sized so that
// no single goroutine serializes throughput and the steady-state cost
// per job is a handful of channel operations and at most a few small
// allocations (see DESIGN.md "Performance" for the budget).
type Engine struct {
	spec   *Spec
	runner Runner
}

// NewEngine pairs a Spec with a Runner. A nil runner defaults to
// ExecRunner (real processes). Malformed Spec knobs (negative
// timeouts/retries, a backoff cap below its base...) are rejected here
// with descriptive errors rather than silently clamped.
func NewEngine(spec *Spec, runner Runner) (*Engine, error) {
	if spec == nil {
		return nil, fmt.Errorf("core: nil spec")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if runner == nil {
		runner = &ExecRunner{}
	}
	return &Engine{spec: spec, runner: runner}, nil
}

// jobPool recycles Job structs across the run pipeline. A *Job handed to
// a Runner is only valid for the duration of that Run call: the engine
// copies it into the Result and reuses the struct for a later job.
var jobPool = sync.Pool{New: func() any { return new(Job) }}

func getJob(seq int, rec []string) *Job {
	j := jobPool.Get().(*Job)
	*j = Job{Seq: seq, Args: rec}
	return j
}

func putJob(j *Job) {
	*j = Job{}
	jobPool.Put(j)
}

// runState carries the shared coordination state of one Run call between
// its pipeline stages.
type runState struct {
	e        *Engine
	s        *Spec
	ctx      context.Context
	cancel   context.CancelFunc
	template *tmpl.Template

	// jobs delivers rendered jobs to the dispatch workers; results
	// returns their outcomes to the collector. Both are buffered so
	// stages decouple instead of hand-shaking on every job.
	jobs    chan *Job
	results chan Result
	// stopInput is closed by the render merger on a render error so the
	// input goroutine stops producing.
	stopInput chan struct{}

	haltSoon   atomic.Bool
	skipped    atomic.Int64
	total      atomic.Int64
	started    atomic.Int64
	inputDone  atomic.Bool
	totalFinal atomic.Bool

	inputErr error
	errOnce  sync.Once

	walErr     error
	walErrOnce sync.Once

	tracker *progressTracker
}

func (rs *runState) setInputErr(err error) {
	rs.errOnce.Do(func() { rs.inputErr = err })
}

func (rs *runState) setWalErr(err error) {
	rs.walErrOnce.Do(func() { rs.walErr = err })
}

// queueDepth sizes the inter-stage buffers: deep enough that stages run
// decoupled, bounded so a slow consumer cannot buffer unbounded input.
func queueDepth(jobs int) int {
	d := 4 * jobs
	if d < 64 {
		d = 64
	}
	if d > 1024 {
		d = 1024
	}
	return d
}

// renderWorkerCount sizes the render stage: a few workers keep template
// rendering off the input goroutine's critical path without spawning a
// second full worker pool.
func renderWorkerCount() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 1 {
		n = 1
	}
	if n > 4 {
		n = 4
	}
	return n
}

// Run consumes src until exhaustion (or halt/cancel), executing jobs in
// parallel. It returns aggregate statistics, collected results when
// Spec.CollectResults is set, and an error for input failures or context
// cancellation. Per-job failures are reported via Stats/results, not the
// error return.
func (e *Engine) Run(ctx context.Context, src args.Source) (Stats, []Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	s := e.spec
	depth := queueDepth(s.Jobs)
	rs := &runState{
		e:         e,
		s:         s,
		ctx:       ctx,
		cancel:    cancel,
		template:  s.effectiveTemplate(),
		jobs:      make(chan *Job, depth),
		results:   make(chan Result, depth),
		stopInput: make(chan struct{}),
	}
	wallStart := time.Now()
	if s.OnProgress != nil {
		rs.tracker = newProgressTracker(func() (int, bool) {
			return int(rs.total.Load()), rs.inputDone.Load()
		})
	}

	rs.startInput(src)
	rs.startWorkers()
	stats, collected, flushErr := rs.collect(wallStart)

	var err error
	switch {
	case rs.walErr != nil:
		err = fmt.Errorf("core: write-ahead log: %w", rs.walErr)
	case rs.inputErr != nil:
		err = fmt.Errorf("core: input source failed: %w", rs.inputErr)
	case ctx.Err() != nil && s.Halt.When != HaltNow:
		err = ctx.Err()
	case flushErr != nil:
		err = fmt.Errorf("core: writing results dir: %w", flushErr)
	}
	return stats, collected, err
}

// startInput launches the input goroutine (record pull, seq assignment,
// resume skipping, percentage-halt spooling) and, when a template is
// configured, the render worker stage between it and the jobs channel.
func (rs *runState) startInput(src args.Source) {
	s := rs.s

	// sink is where the input goroutine delivers jobs. Without a
	// template that is the jobs channel itself; with one it is the
	// render stage's sharded entry.
	var forward func(job *Job) bool
	var closeSink func()

	if rs.template == nil {
		forward = func(job *Job) bool {
			if s.OnEvent != nil {
				s.OnEvent(Event{Type: EventQueued, Seq: job.Seq, Time: time.Now(),
					Command: job.Command})
			}
			select {
			case rs.jobs <- job:
				return true
			case <-rs.ctx.Done():
				putJob(job)
				return false
			}
		}
		closeSink = func() { close(rs.jobs) }
	} else {
		forward, closeSink = rs.startRenderStage()
	}

	go func() {
		defer rs.inputDone.Store(true)
		defer rs.totalFinal.Store(true)
		defer closeSink()
		next := cancellableNext(rs.ctx, src)
		if s.Halt.Percent > 0 {
			// A percentage halt needs the true job total before it can
			// fire; mirror GNU Parallel, which reads the whole input
			// when --halt ...% is given. The spool arena keeps this at
			// O(total input bytes) with two flat slices rather than one
			// allocation per record (Spec.Halt documents the memory
			// behavior).
			var spool recordSpool
			for {
				rec, err := next()
				if err == io.EOF {
					break
				}
				if err != nil {
					rs.setInputErr(err)
					return
				}
				spool.add(rec)
			}
			rs.total.Store(int64(spool.len()))
			rs.totalFinal.Store(true)
			i := 0
			next = func() ([]string, error) {
				if i >= spool.len() {
					return nil, io.EOF
				}
				i++
				return spool.at(i - 1), nil
			}
			// Spooled records never handed to the dispatcher (halt fired
			// first) still belong in the skipped accounting.
			defer func() { rs.skipped.Add(int64(spool.len() - i)) }()
		}
		seq := 0
		for {
			if rs.ctx.Err() != nil || rs.haltSoon.Load() {
				return
			}
			select {
			case <-rs.stopInput:
				return
			default:
			}
			rec, err := next()
			if err == io.EOF {
				return
			}
			if err != nil {
				rs.setInputErr(err)
				return
			}
			seq++
			if !rs.totalFinal.Load() {
				rs.total.Add(1)
			}
			// Digest checks and the intent append both happen here, on
			// the single-threaded input goroutine, before pipe mode can
			// repurpose the record and before any slot sees the job —
			// an intent is durable (per sync policy) by the time the
			// job exists in the pipeline.
			if s.WALVerifier != nil {
				if err := s.WALVerifier.Check(seq, rec); err != nil {
					rs.setWalErr(err)
					return
				}
			}
			if s.ResumeFrom[seq] {
				rs.skipped.Add(1)
				continue
			}
			if s.WAL != nil {
				if werr := s.WAL.AppendIntent(seq, wal.ArgsDigest(rec)); werr != nil {
					rs.setWalErr(werr)
					return
				}
			}
			job := getJob(seq, rec)
			if s.Pipe {
				// Pipe mode: the record is stdin, not argv.
				job.Args = nil
				if len(rec) > 0 {
					job.Stdin = []byte(rec[0])
				}
			}
			if !forward(job) {
				return
			}
		}
	}()
}

// renderedJob pairs a job with its render outcome inside the render
// stage (errors travel in-band so ordering survives).
type renderedJob struct {
	job *Job
	err error
}

// startRenderStage spins up the render worker stage: a small pool of
// workers renders command templates in parallel while a merger re-emits
// jobs to the dispatch queue in input order (sharding is strict
// round-robin, so reading the output rings in the same order restores
// the sequence without any per-job synchronization). It returns the
// input-side forward function and the close function for the input
// goroutine's defer.
func (rs *runState) startRenderStage() (forward func(*Job) bool, closeSink func()) {
	s := rs.s
	template := rs.template
	n := renderWorkerCount()
	in := make([]chan *Job, n)
	out := make([]chan renderedJob, n)
	for i := range in {
		in[i] = make(chan *Job, 32)
		out[i] = make(chan renderedJob, 32)
	}

	// measure render duration only when someone is listening; the
	// disabled path must stay free of clock reads and event values.
	measure := s.OnEvent != nil

	for i := 0; i < n; i++ {
		go func(in <-chan *Job, out chan<- renderedJob) {
			defer close(out)
			var buf []byte // per-worker scratch, reused across jobs
			for job := range in {
				var rerr error
				var renderDur time.Duration
				var renderStart time.Time
				if measure {
					renderStart = time.Now()
				}
				buf, rerr = template.AppendRender(buf[:0], tmpl.Context{Args: job.Args, Seq: job.Seq})
				if rerr == nil {
					job.Command = string(buf)
				}
				if measure {
					renderDur = time.Since(renderStart)
				}
				if s.OnEvent != nil && rerr == nil {
					s.OnEvent(Event{Type: EventQueued, Seq: job.Seq, Time: time.Now(),
						Command: job.Command, Render: renderDur})
				}
				select {
				case out <- renderedJob{job: job, err: rerr}:
				case <-rs.ctx.Done():
					putJob(job)
					return
				}
			}
		}(in[i], out[i])
	}

	// Merger: restore round-robin order and feed the dispatch queue. On
	// a render error it stops the input side and drops whatever was
	// rendered after the failing job, mirroring the pre-pipeline
	// behavior where a render error ended input immediately.
	go func() {
		defer close(rs.jobs)
		defer func() {
			for _, ch := range out {
				for env := range ch {
					if env.job != nil {
						putJob(env.job)
					}
					rs.skipped.Add(1)
				}
			}
		}()
		for i := 0; ; i++ {
			env, ok := <-out[i%n]
			if !ok {
				return
			}
			if env.err != nil {
				rs.setInputErr(env.err)
				close(rs.stopInput)
				putJob(env.job)
				rs.skipped.Add(1)
				return
			}
			select {
			case rs.jobs <- env.job:
			case <-rs.ctx.Done():
				putJob(env.job)
				rs.skipped.Add(1)
				return
			}
		}
	}()

	k := 0
	forward = func(job *Job) bool {
		ch := in[k%n]
		k++
		select {
		case ch <- job:
			return true
		case <-rs.ctx.Done():
			putJob(job)
			return false
		case <-rs.stopInput:
			putJob(job)
			return false
		}
	}
	closeSink = func() {
		for _, ch := range in {
			close(ch)
		}
	}
	return forward, closeSink
}

// startWorkers launches the per-slot dispatch workers (and the pacing
// gate when Delay/MaxLoad are configured). Workers pull jobs straight
// from the queue — no per-job goroutine spawn, no slot token shuffle —
// and their fixed ids provide the {%} slot numbers.
func (rs *runState) startWorkers() {
	s := rs.s
	source := rs.jobs

	if s.Delay > 0 || s.MaxLoad > 0 {
		// Slow path: a single gate goroutine serializes the pacing
		// decisions (inter-start delay, load-average backoff) that a
		// concurrent worker pool cannot make consistently.
		gated := make(chan *Job)
		go func(upstream <-chan *Job) {
			defer close(gated)
			first := true
			for job := range upstream {
				if s.MaxLoad > 0 {
					waitForLoad(s.MaxLoad, rs.ctx.Done())
				}
				if s.Delay > 0 && !first {
					select {
					case <-time.After(s.Delay):
					case <-rs.ctx.Done():
						rs.skipped.Add(1)
						putJob(job)
						continue
					}
				}
				first = false
				gated <- job // workers drain until close; cannot block forever
			}
		}(source)
		source = gated
	}

	var wg sync.WaitGroup
	wg.Add(s.Jobs)
	for slot := 1; slot <= s.Jobs; slot++ {
		go func(slot int) {
			defer wg.Done()
			rs.workerLoop(slot, source)
		}(slot)
	}
	go func() {
		wg.Wait()
		close(rs.results)
	}()
}

// workerLoop is one dispatch slot: it claims queued jobs, runs them (with
// retry/timeout handling in runJob), and reports results.
func (rs *runState) workerLoop(slot int, source <-chan *Job) {
	s := rs.s
	e := rs.e
	for job := range source {
		if rs.ctx.Err() != nil || rs.haltSoon.Load() {
			rs.skipped.Add(1)
			putJob(job)
			continue
		}
		// DispatchDelay: from slot acquisition (this worker picking the
		// job up) to the attempt starting — the engine's own per-task
		// overhead.
		dispatchStart := time.Now()
		job.Slot = slot
		e.bindSlot(job, rs.template)
		rs.started.Add(1)
		if rs.tracker != nil {
			rs.tracker.jobStarted()
		}
		if s.OnEvent != nil {
			s.OnEvent(Event{Type: EventStarted, Seq: job.Seq, Slot: slot, Attempt: 1,
				Time: dispatchStart, Command: job.Command})
		}
		res := e.runJob(rs.ctx, job)
		if !res.Start.IsZero() && res.Start.After(dispatchStart) && res.Attempts == 1 {
			res.DispatchDelay = res.Start.Sub(dispatchStart)
		}
		putJob(job)
		// The collector drains until close(results), so this send
		// cannot block indefinitely.
		rs.results <- res
	}
}

// collect is the single collector loop: ordering, output, joblog, halt
// decisions, stats.
func (rs *runState) collect(wallStart time.Time) (Stats, []Result, error) {
	s := rs.s
	e := rs.e
	stats := Stats{}
	var collected []Result
	var firstStart, lastEnd time.Time
	var dispatchSum time.Duration
	var dispatchN int64

	// Keep-order buffering: a min-heap keyed by seq. Compared to the
	// previous map-of-pending, the heap pops ready results without
	// hashing and leaves stragglers (halt gaps) already sorted.
	var pending resultHeap
	nextSeq := 1
	var resultsDirErr error
	flush := func(res Result) {
		e.emitOutput(res)
		if s.ResultsDir != "" && !res.DryRun {
			if werr := writeResultFiles(s.ResultsDir, res); werr != nil && resultsDirErr == nil {
				resultsDirErr = werr
			}
		}
		if s.Joblog != nil {
			WriteJoblogLine(s.Joblog, res)
		}
		if s.WAL != nil && !res.DryRun {
			// A failure that never produced an exit code (spawn error,
			// kill, timeout) must not replay as success: record it as a
			// nonzero exit so resume re-runs the job.
			exit := res.ExitCode
			if exit == 0 && !res.OK() {
				exit = -1
			}
			if werr := s.WAL.AppendCompletion(res.Job.Seq, exit, res.Duration(), res.Host); werr != nil {
				rs.setWalErr(werr)
			}
		}
		if s.OnResult != nil {
			s.OnResult(res)
		}
		if s.CollectResults {
			collected = append(collected, res)
		}
	}

	for res := range rs.results {
		if s.OnEvent != nil {
			typ := EventFinished
			if res.TimedOut || errors.Is(res.Err, context.Canceled) {
				typ = EventKilled
			}
			s.OnEvent(Event{Type: typ, Seq: res.Job.Seq, Slot: res.Job.Slot,
				Attempt: res.Attempts, Time: time.Now(), Command: res.Job.Command,
				OK: res.OK(), ExitCode: res.ExitCode, Host: res.Host,
				Duration: res.Duration(), DispatchDelay: res.DispatchDelay,
				End: res.End, WorkerDispatch: res.WorkerDispatch})
		}
		if res.OK() {
			stats.Succeeded++
		} else {
			stats.Failed++
		}
		if rs.tracker != nil {
			s.OnProgress(rs.tracker.jobFinished(res.OK()))
		}
		stats.Retries += res.Attempts - 1
		if !res.DryRun {
			if firstStart.IsZero() || res.Start.Before(firstStart) {
				firstStart = res.Start
			}
			if res.End.After(lastEnd) {
				lastEnd = res.End
			}
			dispatchSum += res.DispatchDelay
			dispatchN++
		}
		if s.Halt.Triggered(stats.Succeeded, stats.Failed, int(rs.total.Load()), rs.totalFinal.Load()) {
			rs.haltSoon.Store(true)
			if s.Halt.When == HaltNow {
				rs.cancel()
			}
		}
		if !s.KeepOrder {
			flush(res)
			continue
		}
		pending.push(res)
		for len(pending) > 0 {
			if s.ResumeFrom[nextSeq] {
				nextSeq++
				continue
			}
			if pending[0].Job.Seq != nextSeq {
				break
			}
			flush(pending.pop())
			nextSeq++
		}
	}
	// Flush any keep-order stragglers (halt can leave gaps); heap pops
	// are already seq-sorted.
	for len(pending) > 0 {
		flush(pending.pop())
	}

	stats.Total = int(rs.total.Load())
	stats.Skipped = int(rs.skipped.Load())
	stats.Wall = time.Since(wallStart)
	if !firstStart.IsZero() {
		stats.Makespan = lastEnd.Sub(firstStart)
	}
	if dispatchN > 0 {
		stats.AvgDispatchDelay = dispatchSum / time.Duration(dispatchN)
	}
	if stats.Wall > 0 {
		stats.LaunchRate = float64(rs.started.Load()) / stats.Wall.Seconds()
	}
	stats.InputErr = rs.inputErr
	return stats, collected, resultsDirErr
}

// recordSpool stores input records read ahead for a percentage halt in
// two flat slices (a string arena plus offsets) instead of one slice
// header allocation per record. Record views share the arena's backing
// array; strings are immutable so later appends cannot corrupt
// already-issued views.
type recordSpool struct {
	arena []string
	offs  []int
}

func (sp *recordSpool) add(rec []string) {
	if sp.offs == nil {
		sp.offs = append(sp.offs, 0)
	}
	sp.arena = append(sp.arena, rec...)
	sp.offs = append(sp.offs, len(sp.arena))
}

func (sp *recordSpool) len() int {
	if len(sp.offs) == 0 {
		return 0
	}
	return len(sp.offs) - 1
}

func (sp *recordSpool) at(i int) []string {
	return sp.arena[sp.offs[i]:sp.offs[i+1]:sp.offs[i+1]]
}

// resultHeap is a hand-rolled min-heap of Results keyed by Job.Seq —
// the keep-order reorder buffer. No interface indirection, no
// container/heap allocations.
type resultHeap []Result

func (h *resultHeap) push(r Result) {
	*h = append(*h, r)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].Job.Seq <= a[i].Job.Seq {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
}

func (h *resultHeap) pop() Result {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = Result{} // release references held by the vacated slot
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a[l].Job.Seq < a[smallest].Job.Seq {
			smallest = l
		}
		if r < n && a[r].Job.Seq < a[smallest].Job.Seq {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	*h = a
	return top
}

// cancellableNext pulls source records on a dedicated goroutine so a
// source stuck in a blocking read — an open stdin with no more input,
// say — cannot keep Run from returning once the context is cancelled.
// SIGINT/SIGTERM handling depends on this: the run must unwind and
// flush its joblog and telemetry sinks even though the stdin read can
// never be interrupted. Cancellation reads as end-of-input here; Run's
// own ctx.Err() check reports the cancellation. The abandoned reader
// goroutine is released when the source next yields or, failing that,
// dies with the process. The pull channel is buffered so source reads
// pipeline ahead of job construction instead of hand-shaking per
// record.
func cancellableNext(ctx context.Context, src args.Source) func() ([]string, error) {
	type pulled struct {
		rec []string
		err error
	}
	ch := make(chan pulled, 64)
	go func() {
		for {
			rec, err := src.Next()
			select {
			case ch <- pulled{rec, err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return func() ([]string, error) {
		select {
		case p := <-ch:
			return p.rec, p.err
		case <-ctx.Done():
			return nil, io.EOF
		}
	}
}

// writeResultFiles persists one job's outcome under dir/<seq>/.
func writeResultFiles(dir string, res Result) error {
	jobDir := filepath.Join(dir, strconv.Itoa(res.Job.Seq))
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(jobDir, "stdout"), res.Stdout, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(jobDir, "stderr"), res.Stderr, 0o644); err != nil {
		return err
	}
	exit := fmt.Sprintf("%d\n", res.ExitCode)
	return os.WriteFile(filepath.Join(jobDir, "exitval"), []byte(exit), 0o644)
}

// bindSlot applies slot-dependent rendering: {%} in the template and
// SlotEnv/env wiring.
func (e *Engine) bindSlot(job *Job, template *tmpl.Template) {
	s := e.spec
	if template != nil && template.HasSlotPlaceholder() {
		// Re-render now that the slot is known.
		cmd, err := template.Render(tmpl.Context{Args: job.Args, Seq: job.Seq, Slot: job.Slot})
		if err == nil {
			job.Command = cmd
		}
	}
	if len(s.Env) > 0 || s.SlotEnv != nil {
		job.Env = append(append([]string(nil), s.Env...), job.Env...)
		if s.SlotEnv != nil {
			job.Env = append(job.Env, s.SlotEnv(job.Slot)...)
		}
	}
}

// runJob executes one job with dry-run, timeout and retry handling.
func (e *Engine) runJob(ctx context.Context, job *Job) Result {
	s := e.spec
	if s.DryRun {
		now := time.Now()
		return Result{Job: *job, DryRun: true, Attempts: 1, Start: now, End: now}
	}
	tries := s.Retries
	if tries < 1 {
		tries = 1
	}
	var tr TimeoutRunner
	if s.Timeout > 0 {
		tr, _ = e.runner.(TimeoutRunner)
	}
	var res Result
	for attempt := 1; ; attempt++ {
		var timedOut bool
		if tr != nil {
			res = tr.RunTimeout(ctx, job, s.Timeout)
			timedOut = res.TimedOut
		} else {
			runCtx := ctx
			var cancel context.CancelFunc
			if s.Timeout > 0 {
				runCtx, cancel = context.WithTimeout(ctx, s.Timeout)
			}
			res = e.runner.Run(runCtx, job)
			timedOut = s.Timeout > 0 && runCtx.Err() == context.DeadlineExceeded
			if cancel != nil {
				cancel()
			}
		}
		res.Attempts = attempt
		res.TimedOut = timedOut
		if timedOut && res.Err == nil {
			res.Err = context.DeadlineExceeded
		}
		if res.OK() || ctx.Err() != nil || attempt >= tries {
			break
		}
		if s.RetryOn != nil && !s.RetryOn(res) {
			break
		}
		if s.OnEvent != nil {
			s.OnEvent(Event{Type: EventRetried, Seq: job.Seq, Slot: job.Slot,
				Attempt: attempt + 1, Time: time.Now(), Command: job.Command})
		}
		// Backoff holds the slot, like a still-running job would; a
		// cancelled run abandons the remaining attempts.
		if d := s.RetryBackoff.Delay(job.Seq, attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return res
			}
		}
	}
	return res
}

// emitOutput writes a result's grouped output to the spec writers,
// applying --tag prefixes if configured.
func (e *Engine) emitOutput(res Result) {
	s := e.spec
	if res.DryRun {
		if s.Out != nil {
			fmt.Fprintln(s.Out, res.Job.Command)
		}
		return
	}
	writeGrouped(s.Out, res.Stdout, s.Tag, res.Job)
	writeGrouped(s.Errout, res.Stderr, s.Tag, res.Job)
}

func writeGrouped(w io.Writer, data []byte, tag bool, job Job) {
	if w == nil || len(data) == 0 {
		return
	}
	if !tag {
		w.Write(data)
		return
	}
	prefix := ""
	if len(job.Args) > 0 {
		prefix = job.Args[0]
	}
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\t%s", prefix, line)
	}
}
