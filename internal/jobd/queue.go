package jobd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/args"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/tmpl"
	"repro/internal/wal"
)

// jobStateCode is a job's lifecycle state in the queue's table.
type jobStateCode uint8

const (
	statePending jobStateCode = iota
	stateRunning
	stateOK
	stateFailed
	stateCancelled
	numStates
)

func (c jobStateCode) terminal() bool { return c >= stateOK }

func (c jobStateCode) String() string {
	switch c {
	case statePending:
		return "pending"
	case stateRunning:
		return "running"
	case stateOK:
		return "ok"
	case stateFailed:
		return "failed"
	case stateCancelled:
		return "cancelled"
	}
	return "unknown"
}

// jobEntry is one job's row in the queue table. done closes when the
// job reaches a terminal state — the long-poll primitive behind
// GET /v1/jobs/{q}/{seq}?wait=...
type jobEntry struct {
	exit      int
	submitted time.Time // zero for jobs submitted before the last daemon start
	started   time.Time
	ended     time.Time
	done      chan struct{}
	cmd       string // the command, dropped once the job is terminal
	state     jobStateCode
	cancelled bool
}

// closedChan is the shared pre-closed done channel for entries that
// are already terminal when created (table rebuild on daemon start).
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// queue is one named tenant queue: its log (WAL), job table, event
// bus, and the current engine generation.
type queue struct {
	name string
	dir  string
	srv  *Server

	wal  *wal.Log
	bus  *telemetry.Bus
	sq   *schedQueue
	met  *queueMetrics
	wake chan struct{} // cap 1: a submit nudges the engine's source

	spanF    *os.File
	spanW    *bufio.Writer
	spanRec  *span.Recorder
	spanDone chan struct{}

	mu        sync.Mutex
	cfg       QueueConfig
	jobs      map[int]*jobEntry
	cancels   map[int]context.CancelFunc
	submitted int // every seq up to this one has a table row
	counts    [numStates]int
	broken    error
	closed    bool

	// engMu serializes engine generations: start, quota restart, stop.
	engMu   sync.Mutex
	drain   chan struct{}
	engDone chan struct{}
}

// openQueue opens (create=true: initializes) one queue directory and
// starts its engine generation. Caller holds s.mu.
func (s *Server) openQueue(name string, cfg QueueConfig, create bool) (*queue, error) {
	if err := validQueueName(name); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.cfg.Dir, name)
	cfgPath := filepath.Join(dir, "queue.json")
	if create {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if _, err := os.Stat(cfgPath); err != nil {
			if err := writeQueueConfig(cfgPath, cfg); err != nil {
				return nil, err
			}
		}
	}
	stored, err := readQueueConfig(cfgPath)
	if err != nil {
		return nil, err
	}
	cfg = stored.normalized()

	wl, st, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{
		Sync:          s.cfg.WALSync,
		FsyncObserver: s.wm.ObserveFsync,
	})
	if err != nil {
		return nil, err
	}
	s.wm.RecordReplay(st.Records, st.TornTails)

	q := &queue{
		name:    name,
		dir:     dir,
		srv:     s,
		wal:     wl,
		bus:     telemetry.NewBus(),
		wake:    make(chan struct{}, 1),
		cfg:     cfg,
		jobs:    map[int]*jobEntry{},
		cancels: map[int]context.CancelFunc{},
	}
	q.met = newQueueMetrics(s.reg, q)
	q.rebuildTable(st)
	q.bus.Tap(q.onEvent)
	if s.cfg.Flight != nil {
		q.bus.Tap(s.cfg.Flight.RecordEvent)
	}
	if s.cfg.Spans {
		f, serr := os.OpenFile(filepath.Join(dir, "spans.jsonl"),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if serr != nil {
			q.closeFiles()
			return nil, serr
		}
		q.spanF = f
		q.spanW = bufio.NewWriter(f)
		q.spanRec = span.NewRecorder(span.NewJSONLWriter(q.spanW))
		q.spanDone = make(chan struct{})
		sub := q.bus.Subscribe(8192)
		go func() {
			defer close(q.spanDone)
			telemetry.Pump(sub, q.spanRec.Consume)
		}()
	}
	q.sq = s.sched.register(cfg.Weight)
	if s.cfg.Flight != nil {
		q.registerFlightSource()
	}

	q.engMu.Lock()
	defer q.engMu.Unlock()
	if err := q.startEngineLocked(); err != nil {
		s.sched.unregister(q.sq)
		if s.cfg.Flight != nil {
			s.cfg.Flight.RemoveSource(q.flightSourceName())
		}
		q.closeFiles()
		return nil, err
	}
	return q, nil
}

func (q *queue) flightSourceName() string { return "jobd/" + q.name }

// registerFlightSource adds this queue's component snapshot to the
// daemon's flight recorder: scheduler standing, job-table gauges, WAL
// pipeline depth and sync recency. Sampled once per snapshot interval
// on the recorder's goroutine, so the brief locks are off every hot
// path.
func (q *queue) registerFlightSource() {
	rec := q.srv.cfg.Flight
	rec.AddSource(q.flightSourceName(), func(buf []flight.Stat) []flight.Stat {
		q.mu.Lock()
		depth := q.counts[statePending]
		running := q.counts[stateRunning]
		q.mu.Unlock()
		st := q.srv.sched.standing(q.sq)
		ws := q.wal.Stats()
		syncLagMS := -1.0 // no fsync yet
		if !ws.LastSync.IsZero() {
			syncLagMS = float64(time.Since(ws.LastSync)) / float64(time.Millisecond)
		}
		return append(buf,
			flight.Stat{Name: "depth", V: float64(depth)},
			flight.Stat{Name: "running", V: float64(running)},
			flight.Stat{Name: "sched_vtime", V: st.vtime},
			flight.Stat{Name: "sched_waiting", V: float64(st.waiting)},
			flight.Stat{Name: "wal_appended", V: float64(ws.Appended)},
			flight.Stat{Name: "wal_staged", V: float64(ws.Staged)},
			flight.Stat{Name: "wal_sync_lag_ms", V: syncLagMS},
			flight.Stat{Name: "events_dropped", V: float64(q.bus.Dropped())},
		)
	})
}

func writeQueueConfig(path string, cfg QueueConfig) error {
	data, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readQueueConfig(path string) (QueueConfig, error) {
	var cfg QueueConfig
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	return cfg, json.Unmarshal(data, &cfg)
}

// rebuildTable reconstructs the job table from the replayed log: every
// seq up to the last submit, with its cancel, its completion or its
// pending command.
func (q *queue) rebuildTable(st *wal.State) {
	n := st.LastSeq()
	q.submitted = n
	for seq := 1; seq <= n; seq++ {
		e := &jobEntry{done: closedChan}
		exit, done := st.Completed[seq]
		cmd := st.Pending[seq]
		switch {
		case st.Cancelled[seq]:
			e.state, e.cancelled = stateCancelled, true
		case done && exit == 0:
			e.state = stateOK
		case done:
			e.state, e.exit = stateFailed, exit
		case cmd != "":
			e.state, e.cmd, e.done = statePending, cmd, make(chan struct{})
		default: // no command logged: a directory an older gopar serve wrote
			e.state, e.exit = stateFailed, -1
		}
		q.jobs[seq] = e
		q.counts[e.state]++
	}
}

func (q *queue) closeFiles() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(q.wal.Close())
	q.bus.Close()
	if q.spanDone != nil {
		<-q.spanDone // pump ends once the bus closes its subscription
		keep(q.spanRec.Close())
		keep(q.spanW.Flush())
		keep(q.spanF.Sync())
		keep(q.spanF.Close())
	}
	return firstErr
}

// config returns the queue's current policy.
func (q *queue) config() QueueConfig {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cfg
}

// Name returns the queue name.
func (q *queue) Name() string { return q.name }

// fail marks the queue broken (a WAL append failure, an engine abort):
// submits and cancels are refused until the operator restarts the
// daemon — a queue that can no longer log durably must not keep
// acking.
func (q *queue) fail(err error) {
	q.mu.Lock()
	if q.broken == nil {
		q.broken = err
	}
	q.mu.Unlock()
	q.srv.logf("jobd: queue %q failed: %v", q.name, err)
}

func (q *queue) usable() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.usableLocked()
}

func (q *queue) usableLocked() error {
	if q.closed {
		return ErrClosed
	}
	if q.broken != nil {
		return q.broken
	}
	return nil
}

// Submit accepts a batch of commands whole or not at all: every command
// is checked first, then one WAL append assigns the seqs and logs the
// commands (its return is the durable accept), then the table rows
// appear and the engine wakes. A failed append acks nothing and marks
// the queue broken.
func (q *queue) Submit(commands []string) ([]int, error) {
	if len(commands) == 0 {
		return nil, fmt.Errorf("jobd: empty submit")
	}
	for i, cmd := range commands {
		if cmd == "" {
			return nil, fmt.Errorf("jobd: empty command at index %d", i)
		}
	}
	if err := q.usable(); err != nil {
		return nil, err
	}
	first, err := q.wal.AppendSubmit(commands)
	if err != nil {
		q.fail(err)
		return nil, err
	}
	now := time.Now()
	seqs := make([]int, len(commands))
	q.mu.Lock()
	for i, cmd := range commands {
		seqs[i] = first + i
		q.jobs[first+i] = &jobEntry{cmd: cmd, submitted: now, done: make(chan struct{})}
	}
	q.counts[statePending] += len(commands)
	// Concurrent submits can land their rows out of seq order; the
	// engine reads only up to the first missing one.
	for q.jobs[q.submitted+1] != nil {
		q.submitted++
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	q.met.submitted.Add(int64(len(commands)))
	return seqs, nil
}

// Status returns seq's current JobStatus.
func (q *queue) Status(seq int) (JobStatus, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.jobs[seq]
	if e == nil {
		return JobStatus{}, fmt.Errorf("%w: job %s/%d", ErrNotFound, q.name, seq)
	}
	return q.statusLocked(seq, e), nil
}

// Wait blocks until seq is terminal, ctx is done, or timeout elapses,
// then returns the current status (callers inspect State to tell which).
func (q *queue) Wait(ctx context.Context, seq int, timeout time.Duration) (JobStatus, error) {
	q.mu.Lock()
	e := q.jobs[seq]
	if e == nil {
		q.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: job %s/%d", ErrNotFound, q.name, seq)
	}
	done := e.done
	q.mu.Unlock()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	select {
	case <-done:
	case <-ctx.Done():
	}
	return q.Status(seq)
}

// Cancel stops seq: a pending job becomes terminal immediately (the
// engine will later skip it), a running job's context is cancelled. The
// cancel is logged and fsynced before it is acted on, so a restart
// cannot resurrect a cancelled job.
//
// It is logged under q.mu, and that is what keeps the table and the log
// in one order: a job's completion reaches the log only after its
// finish event has settled the row under q.mu. A cancel logged while
// the row is not terminal therefore precedes the completion, and counts
// on replay too; a cancel that finds the row terminal is refused with
// ErrAlreadyDone and never logged.
func (q *queue) Cancel(seq int) (JobStatus, error) {
	q.mu.Lock()
	if err := q.usableLocked(); err != nil {
		q.mu.Unlock()
		return JobStatus{}, err
	}
	e := q.jobs[seq]
	if e == nil {
		q.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: job %s/%d", ErrNotFound, q.name, seq)
	}
	if e.state.terminal() {
		st := q.statusLocked(seq, e)
		q.mu.Unlock()
		return st, ErrAlreadyDone
	}
	if !e.cancelled {
		if err := q.wal.AppendCancel(seq); err != nil {
			q.mu.Unlock()
			q.fail(err)
			return JobStatus{}, err
		}
		e.cancelled = true
	}
	var kill context.CancelFunc
	if e.state == statePending {
		q.settleLocked(e, stateCancelled, time.Now())
		q.met.completed(stateCancelled)
	} else {
		kill = q.cancels[seq]
	}
	st := q.statusLocked(seq, e)
	q.mu.Unlock()
	if kill != nil {
		kill()
	}
	return st, nil
}

// settleLocked moves e to a terminal state, releasing its waiters and
// its command.
func (q *queue) settleLocked(e *jobEntry, state jobStateCode, at time.Time) {
	q.counts[e.state]--
	e.state = state
	q.counts[state]++
	e.ended = at
	e.cmd = ""
	close(e.done)
}

// isCancelled reports whether seq has been cancelled.
func (q *queue) isCancelled(seq int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.jobs[seq].cancelled
}

// armCancel installs the kill switch for a dispatched job. When the
// job was cancelled while waiting for its fair-share slot, it reports
// already=true and the runner skips execution.
func (q *queue) armCancel(ctx context.Context, seq int) (jctx context.Context, cancel context.CancelFunc, already bool, submitted time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.jobs[seq]
	if e.cancelled {
		return nil, nil, true, time.Time{}
	}
	jctx, cancel = context.WithCancel(ctx)
	q.cancels[seq] = cancel
	return jctx, cancel, false, e.submitted
}

func (q *queue) disarmCancel(seq int) {
	q.mu.Lock()
	delete(q.cancels, seq)
	q.mu.Unlock()
}

// onEvent is the bus tap that keeps the job table in lockstep with the
// engine's lifecycle events. It runs inside Publish on engine
// goroutines: table transition under the lock, metrics after.
func (q *queue) onEvent(ev core.Event) {
	switch ev.Type {
	case core.EventStarted:
		q.mu.Lock()
		if e := q.jobs[ev.Seq]; e.state == statePending {
			q.counts[statePending]--
			e.state = stateRunning
			q.counts[stateRunning]++
			e.started = ev.Time
		}
		q.mu.Unlock()
	case core.EventFinished, core.EventKilled:
		q.mu.Lock()
		e := q.jobs[ev.Seq]
		if e.state.terminal() {
			// Cancelled-while-pending: the runner's skip result arrives
			// after Cancel already settled the row.
			q.mu.Unlock()
			return
		}
		final := stateFailed
		switch {
		case e.cancelled:
			final = stateCancelled
		case ev.OK:
			final = stateOK
		}
		e.exit = ev.ExitCode
		q.settleLocked(e, final, ev.Time)
		q.mu.Unlock()
		q.met.completed(final)
		if ev.DispatchDelay > 0 {
			q.met.dispatch.ObserveDuration(ev.DispatchDelay)
		}
	}
}

// source yields the queue's jobs in seq order as engine input: an empty
// record for each seq in resume, which the engine skips, and the
// command from the job table for the rest, waiting at the tail for the
// next submit. drain ends the generation gracefully; ctx force-cancels
// it.
func (q *queue) source(ctx context.Context, drain <-chan struct{}, resume map[int]bool) args.Source {
	seq := 0
	return args.SourceFunc(func() ([]string, error) {
		for {
			select {
			case <-ctx.Done():
				return nil, io.EOF
			case <-drain:
				return nil, io.EOF
			default:
			}
			q.mu.Lock()
			if seq < q.submitted {
				seq++
				cmd := q.jobs[seq].cmd
				q.mu.Unlock()
				if resume[seq] {
					return nil, nil
				}
				return []string{cmd}, nil
			}
			q.mu.Unlock()
			select {
			case <-q.wake:
			case <-ctx.Done():
				return nil, io.EOF
			case <-drain:
				return nil, io.EOF
			}
		}
	})
}

// jobTemplate renders each job's one raw command string as the job
// command verbatim.
var jobTemplate = tmpl.MustParse("{}")

// startEngineLocked starts a new engine generation over the job table.
// Caller holds engMu. The service's resume rule differs from one-shot
// --resume in one deliberate way: every terminal job — ok, failed or
// cancelled — is skipped (clients resubmit failures; a restart must
// not surprise-rerun them).
func (q *queue) startEngineLocked() error {
	q.mu.Lock()
	resume := make(map[int]bool, len(q.jobs))
	for seq, e := range q.jobs {
		if e.state.terminal() {
			resume[seq] = true
		}
	}
	quota := q.cfg.Quota
	q.mu.Unlock()

	spec := &core.Spec{
		Jobs:       jobsFor(q.srv.runner, quota),
		Template:   jobTemplate,
		Retries:    1,
		WAL:        q.wal,
		ResumeFrom: resume,
		OnEvent:    q.bus.Publish,
	}
	if q.srv.cfg.Results {
		spec.ResultsDir = filepath.Join(q.dir, "results")
	}
	eng, err := core.NewEngine(spec, &queueRunner{q: q})
	if err != nil {
		return err
	}
	drain := make(chan struct{})
	done := make(chan struct{})
	q.drain, q.engDone = drain, done
	ctx := q.srv.ctx
	go func() {
		defer close(done)
		if rec := q.srv.cfg.Flight; rec != nil {
			// A panicking engine still kills the daemon (DumpOnPanic
			// re-panics), but the black box hits the disk first.
			defer flight.DumpOnPanic(rec, q.srv.cfg.FlightDir, q.srv.logf)
		}
		_, _, runErr := eng.Run(ctx, q.source(ctx, drain, resume))
		if runErr != nil && ctx.Err() == nil && !errors.Is(runErr, context.Canceled) {
			q.fail(runErr)
		}
	}()
	return nil
}

// setConfig persists a policy change. Weight applies to the next
// grant; a quota change drains the current engine generation (running
// jobs finish) and starts a new one over the remaining jobs.
func (q *queue) setConfig(cfg QueueConfig) error {
	q.engMu.Lock()
	defer q.engMu.Unlock()
	if err := q.usable(); err != nil {
		return err
	}
	q.mu.Lock()
	old := q.cfg
	q.cfg = cfg
	q.mu.Unlock()
	if err := writeQueueConfig(filepath.Join(q.dir, "queue.json"), cfg); err != nil {
		return err
	}
	q.srv.sched.setWeight(q.sq, cfg.Weight)
	if cfg.Quota == old.Quota {
		return nil
	}
	close(q.drain)
	<-q.engDone
	if err := q.usable(); err != nil {
		return err
	}
	q.srv.logf("jobd: queue %q quota %d -> %d (engine generation restarted)", q.name, old.Quota, cfg.Quota)
	return q.startEngineLocked()
}

// beginStop closes the submit window and the engine's drain gate,
// returning the generation's done channel for the server to await.
func (q *queue) beginStop() <-chan struct{} {
	q.engMu.Lock()
	defer q.engMu.Unlock()
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case <-q.drain:
	default:
		close(q.drain)
	}
	return q.engDone
}

// finishClose releases the queue's resources after its engine stopped.
func (q *queue) finishClose() error {
	q.srv.sched.unregister(q.sq)
	if q.srv.cfg.Flight != nil {
		q.srv.cfg.Flight.RemoveSource(q.flightSourceName())
	}
	return q.closeFiles()
}

// stats snapshots the queue's aggregate counters.
func (q *queue) stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{
		Name:      q.name,
		Quota:     q.cfg.Quota,
		Weight:    q.cfg.Weight,
		Submitted: q.submitted,
		Pending:   q.counts[statePending],
		Running:   q.counts[stateRunning],
		OK:        q.counts[stateOK],
		Failed:    q.counts[stateFailed],
		Cancelled: q.counts[stateCancelled],
	}
	if q.broken != nil {
		st.Error = q.broken.Error()
	}
	return st
}

// Jobs lists up to limit job statuses, newest first, optionally
// filtered by state name ("" = all).
func (q *queue) Jobs(stateFilter string, limit int) []JobStatus {
	if limit <= 0 {
		limit = 1000
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobStatus, 0, min(limit, len(q.jobs)))
	for seq := q.submitted; seq >= 1 && len(out) < limit; seq-- {
		e := q.jobs[seq]
		if e == nil {
			continue
		}
		if stateFilter != "" && e.state.String() != stateFilter {
			continue
		}
		out = append(out, q.statusLocked(seq, e))
	}
	return out
}

// Watch subscribes to the queue's live event stream. The caller must
// call the returned cancel function when done (client disconnect), or
// the subscription would outlive them.
func (q *queue) Watch(buf int) (*telemetry.Subscription, func()) {
	sub := q.bus.Subscribe(buf)
	return sub, func() { q.bus.Unsubscribe(sub) }
}

// QueueStats is the /v1/queues wire shape.
type QueueStats struct {
	Name      string `json:"name"`
	Quota     int    `json:"quota"`
	Weight    int    `json:"weight"`
	Submitted int    `json:"submitted"`
	Pending   int    `json:"pending"`
	Running   int    `json:"running"`
	OK        int    `json:"ok"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	Error     string `json:"error,omitempty"`
}

// JobStatus is the per-job wire shape. ID is "<queue>/<seq>".
type JobStatus struct {
	ID          string `json:"id"`
	Queue       string `json:"queue"`
	Seq         int    `json:"seq"`
	State       string `json:"state"`
	Exit        int    `json:"exit"`
	Cancelled   bool   `json:"cancelled,omitempty"`
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	EndedAt     string `json:"ended_at,omitempty"`
}

func (q *queue) statusLocked(seq int, e *jobEntry) JobStatus {
	st := JobStatus{
		ID:        q.name + "/" + strconv.Itoa(seq),
		Queue:     q.name,
		Seq:       seq,
		State:     e.state.String(),
		Exit:      e.exit,
		Cancelled: e.cancelled,
	}
	if !e.submitted.IsZero() {
		st.SubmittedAt = e.submitted.UTC().Format(time.RFC3339Nano)
	}
	if !e.started.IsZero() {
		st.StartedAt = e.started.UTC().Format(time.RFC3339Nano)
	}
	if !e.ended.IsZero() {
		st.EndedAt = e.ended.UTC().Format(time.RFC3339Nano)
	}
	return st
}
