// Package jobd promotes the one-shot launcher engine into a
// persistent, multi-tenant job service: a long-lived coordinator that
// owns named queues, each bound to a WAL-backed run directory, and
// serves submits from many concurrent clients over HTTP/JSON.
//
// Architecture per queue:
//
//   - one wal.Log is the queue's only log: a submit record per accepted
//     command, a cancel record per cancel, and the engine's intents and
//     completions exactly as in one-shot --wal runs. One replay rebuilds
//     the job table, pending commands included;
//   - a long-lived core.Engine generation reads the job table through a
//     blocking args.Source, with Jobs set to the queue's quota and
//     ResumeFrom holding every terminal job on every (re)start.
//
// Every accepted submit is logged before the ack (written through under
// every -wal-sync policy, fsynced under always), so a SIGKILL'd daemon
// restarts into the same state machine the one-shot crash harness
// proves: acked submits are never lost, durable completions never
// re-execute, unlogged-completion jobs re-run exactly once.
//
// A weighted fair scheduler arbitrates the global slot pool across
// queues (see sched.go), so a saturating tenant is confined to its
// weight share and its per-queue quota. docs/SERVICE.md is the user
// manual for all of this.
package jobd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Errors mapped to HTTP statuses by the API layer.
var (
	ErrNotFound    = errors.New("jobd: not found")
	ErrAlreadyDone = errors.New("jobd: job already finished")
	ErrClosed      = errors.New("jobd: server closed")
)

// QueueConfig is a queue's tenant policy, persisted as queue.json in
// the queue directory.
type QueueConfig struct {
	// Quota is the queue's own -j: the most of its jobs executing at
	// once, however idle the rest of the pool is.
	Quota int `json:"quota"`
	// Weight is the queue's fair share when the global pool is
	// contended: over a saturated window it receives Weight/ΣWeights
	// of the slots.
	Weight int `json:"weight"`
}

func (c QueueConfig) normalized() QueueConfig {
	if c.Quota < 1 {
		c.Quota = 1
	}
	if c.Weight < 1 {
		c.Weight = 1
	}
	return c
}

// Config configures a Server.
type Config struct {
	// Dir is the service state root: one subdirectory per queue.
	Dir string
	// Slots is the global execution-slot pool shared by all queues.
	Slots int
	// DefaultQuota/DefaultWeight apply to queues auto-created by a
	// first submit (both default to 1 when unset; quota additionally
	// defaults to Slots when <= 0 — a lone tenant gets the fleet).
	DefaultQuota  int
	DefaultWeight int
	// WALSync is each queue log's durability policy, for submits as for
	// execution records. SyncAlways: a submit ack means its commands
	// are on disk (one fsync per batch). SyncInterval: the commands
	// reached the OS before the ack, so they survive a daemon kill, and
	// reach the disk within one group-commit window. SyncNever: they
	// survive a daemon kill but not a host crash. A cancel is fsynced
	// before its ack under every policy.
	WALSync wal.SyncPolicy
	// Runner executes jobs; nil selects ExecRunner with output
	// discarded unless Results is set.
	Runner core.Runner
	// Registry receives the jobd_* metric series; nil allocates a
	// private one (reachable via Server.Registry).
	Registry *telemetry.Registry
	// Spans mirrors each queue's event stream into
	// <dir>/<queue>/spans.jsonl for per-tenant `gopar report`
	// attribution.
	Spans bool
	// Results saves each job's output under <dir>/<queue>/results/<seq>/.
	Results bool
	// DrainGrace bounds graceful Close: how long running jobs get to
	// finish before they are cancelled (default 10s).
	DrainGrace time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Flight, when non-nil, is the daemon's flight recorder: every
	// queue's event bus is tapped into it and each queue registers a
	// "jobd/<queue>" snapshot source (depth, running, scheduler vtime,
	// WAL pipeline stats). The recorder is owned by the binary — jobd
	// neither Starts nor Stops it.
	Flight *flight.Recorder
	// FlightDir is where panic dumps land when an engine goroutine
	// unwinds (os.TempDir() when empty). Only meaningful with Flight.
	FlightDir string
}

// Server is the persistent job service: queue registry, shared
// scheduler, shared metrics. Create with New, serve its Handler, then
// Close.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	wm     *telemetry.WalMetrics
	sched  *scheduler
	runner core.Runner
	start  time.Time

	// ctx force-cancels every engine generation; Close cancels it after
	// the drain grace expires.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	queues map[string]*queue
	closed bool
}

// jobsFor is how many of a queue's jobs the runner may hold in flight
// so that at most limit of them execute at once: dist.Pool answers with
// its credit window when limit covers its execution slots; any other
// runner executes what it holds.
func jobsFor(r core.Runner, limit int) int {
	if p, ok := r.(interface{ Jobs(limit int) int }); ok {
		return p.Jobs(limit)
	}
	return limit
}

// New opens the service over cfg.Dir, resuming every queue found there
// (a directory containing queue.json): each queue's WAL is replayed
// and its engine restarted so interrupted jobs re-run exactly once.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobd: Config.Dir is required")
	}
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("jobd: Config.Slots must be >= 1, got %d", cfg.Slots)
	}
	if cfg.DefaultQuota < 1 {
		cfg.DefaultQuota = cfg.Slots
	}
	if cfg.DefaultWeight < 1 {
		cfg.DefaultWeight = 1
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 10 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Runner == nil {
		cfg.Runner = &core.ExecRunner{DiscardOutput: !cfg.Results}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	// The scheduler counts the runner's credits, so a windowed queue's
	// prefetch is charged to its tenant.
	sched, err := newScheduler(jobsFor(cfg.Runner, cfg.Slots))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		wm:     telemetry.NewWalMetrics(cfg.Registry),
		sched:  sched,
		runner: cfg.Runner,
		start:  time.Now(),
		ctx:    ctx,
		cancel: cancel,
		queues: map[string]*queue{},
	}
	s.reg.GaugeFunc("jobd_slots", "global execution slot pool size",
		func() float64 { return float64(cfg.Slots) })

	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		cancel()
		return nil, err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		if _, statErr := os.Stat(filepath.Join(cfg.Dir, name, "queue.json")); statErr != nil {
			continue
		}
		q, qerr := s.openQueue(name, QueueConfig{}, false)
		if qerr != nil {
			s.forceClose()
			return nil, fmt.Errorf("jobd: resuming queue %q: %w", name, qerr)
		}
		s.queues[name] = q
		s.logf("jobd: resumed queue %q (%d jobs submitted, %d to run)",
			name, q.stats().Submitted, q.stats().Pending)
	}
	return s, nil
}

// Registry exposes the metric registry (the daemon serves it on
// -metrics-addr and mounts it at /metrics on the API listener).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// validQueueName forbids path separators and dots because the name
// becomes a directory component, and it doubles as the ID prefix
// ("queue/seq") so a slash would be ambiguous.
func validQueueName(name string) error {
	if name == "" || len(name) > 128 || strings.ContainsAny(name, "/\\.") {
		return fmt.Errorf("jobd: invalid queue name %q", name)
	}
	return nil
}

// Queue returns the named queue, or ErrNotFound.
func (s *Server) Queue(name string) (*queue, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if q, ok := s.queues[name]; ok {
		return q, nil
	}
	return nil, fmt.Errorf("%w: queue %q", ErrNotFound, name)
}

// EnsureQueue returns the named queue, creating it with the default
// policy on first use — a submit to a fresh queue name just works.
func (s *Server) EnsureQueue(name string) (*queue, error) {
	return s.ensureQueue(name, QueueConfig{Quota: s.cfg.DefaultQuota, Weight: s.cfg.DefaultWeight})
}

func (s *Server) ensureQueue(name string, cfg QueueConfig) (*queue, error) {
	if err := validQueueName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if q, ok := s.queues[name]; ok {
		return q, nil
	}
	q, err := s.openQueue(name, cfg.normalized(), true)
	if err != nil {
		return nil, err
	}
	s.queues[name] = q
	s.logf("jobd: created queue %q (quota %d, weight %d)", name, q.config().Quota, q.config().Weight)
	return q, nil
}

// ConfigureQueue creates the queue with cfg, or updates an existing
// queue's policy (a quota change restarts its engine generation
// in-place; running jobs finish under the old quota first).
func (s *Server) ConfigureQueue(name string, cfg QueueConfig) (*queue, error) {
	cfg = cfg.normalized()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	q, ok := s.queues[name]
	s.mu.Unlock()
	if !ok {
		return s.ensureQueue(name, cfg)
	}
	if err := q.setConfig(cfg); err != nil {
		return nil, err
	}
	return q, nil
}

// Stats returns a snapshot for every queue, name-sorted.
func (s *Server) Stats() []QueueStats {
	s.mu.Lock()
	qs := make([]*queue, 0, len(s.queues))
	for _, q := range s.queues {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	out := make([]QueueStats, 0, len(qs))
	for _, q := range qs {
		out = append(out, q.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close shuts the service down gracefully: queues stop accepting work,
// engines drain (running jobs get DrainGrace to finish; jobs still
// running after that are cancelled and recorded as failed — a graceful
// stop always leaves every dispatched job in a terminal state, and
// clients resubmit failures). Pending, never-dispatched jobs keep their
// submit record and run on the next start. Then every WAL and event bus
// is flushed and closed. Only an unclean death (SIGKILL, power
// loss) leaves jobs mid-flight; those re-run exactly once on resume.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	qs := make([]*queue, 0, len(s.queues))
	for _, q := range s.queues {
		qs = append(qs, q)
	}
	s.mu.Unlock()

	dones := make([]<-chan struct{}, 0, len(qs))
	for _, q := range qs {
		dones = append(dones, q.beginStop())
	}
	deadline := time.After(s.cfg.DrainGrace)
	forced := false
	for _, done := range dones {
		select {
		case <-done:
		case <-deadline:
			if !forced {
				s.logf("jobd: drain grace expired, cancelling running jobs")
				s.cancel()
				forced = true
			}
			<-done
		}
	}
	s.cancel()

	var firstErr error
	for _, q := range qs {
		if err := q.finishClose(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// forceClose tears down queues opened so far when New itself fails.
func (s *Server) forceClose() {
	s.cancel()
	for _, q := range s.queues {
		<-q.beginStop()
		q.finishClose()
	}
}
