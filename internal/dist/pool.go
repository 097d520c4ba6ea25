package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// WorkerSpec names one worker to dial.
type WorkerSpec struct {
	// Addr is the worker's TCP address (host:port).
	Addr string
	// Slots caps concurrent jobs on this worker; 0 uses the count the
	// worker advertises.
	Slots int
}

// Pool is a core.Runner that executes jobs on remote workers. It holds
// one multiplexed session (one TCP connection) per worker and one slot
// token per worker slot; Run borrows a token, ships the job over its
// session, and returns the result. Transport failures surface as job
// errors (so Spec.Retries re-runs them, potentially on another worker),
// and a broken session is redialed in the background — up to a
// per-worker budget, after which its slots are written off and the pool
// runs degraded (visible via Health) rather than spinning on a
// permanently dead worker forever.
type Pool struct {
	// free holds one token per idle live slot: slots copies of each
	// live session.
	free   chan *session
	total  int
	closed chan struct{}
	mu     sync.Mutex
	live   map[*session]bool

	// redialBudget caps redial attempts per retired session; <= 0
	// means unlimited.
	redialBudget int
	// deflateThreshold is the payload size above which stdin ships
	// deflated (0 = DefaultDeflateThreshold, negative = off).
	deflateThreshold int
	// wire counts framed traffic across all the pool's sessions.
	wire      WireStats
	redialing atomic.Int64
	lost      atomic.Int64

	// onHealth, when non-nil, is invoked with the current Health after
	// every capacity change (session retired, redial succeeded, slots
	// written off). Called from Run and redialer goroutines: keep it
	// fast and concurrency-safe.
	onHealth func(Health)

	// snaps holds the latest telemetry snapshot piggybacked by each
	// worker, keyed by worker name.
	snapMu sync.Mutex
	snaps  map[string]telemetry.Snapshot
}

// DefaultRedialBudget is the redial-attempt cap applied when Dial is
// given no WithRedialBudget option. With the 100ms..5s exponential
// redial backoff this gives a dead worker roughly half a minute to come
// back before its slots are written off.
const DefaultRedialBudget = 8

// Option configures Dial.
type Option func(*Pool)

// WithRedialBudget overrides the redial-attempt cap for broken
// sessions. n <= 0 retries forever.
func WithRedialBudget(n int) Option {
	return func(p *Pool) { p.redialBudget = n }
}

// WithDeflateThreshold sets the payload size (bytes) above which the
// coordinator ships stdin deflated. 0 keeps DefaultDeflateThreshold;
// negative disables compression entirely.
func WithDeflateThreshold(n int) Option {
	return func(p *Pool) { p.deflateThreshold = n }
}

// WithHealthNotify registers fn to receive the pool's Health after
// every capacity change — the hook the CLI uses to warn the moment a
// pool first degrades instead of degrading silently. fn runs on pool
// goroutines; it must be fast and safe for concurrent use.
func WithHealthNotify(fn func(Health)) Option {
	return func(p *Pool) { p.onHealth = fn }
}

// Health is a point-in-time capacity gauge for a pool.
type Health struct {
	// Total is the slot count established at Dial time.
	Total int
	// Live slots belong to a healthy worker session (free or running a
	// job).
	Live int
	// Redialing slots lost their session and are reconnecting in the
	// background.
	Redialing int
	// Lost slots exhausted their redial budget; the pool's capacity is
	// permanently reduced by this many until Close.
	Lost int
}

// Degraded reports whether any capacity is currently missing.
func (h Health) Degraded() bool { return h.Live < h.Total }

// Health reports the pool's current capacity state.
func (p *Pool) Health() Health {
	p.mu.Lock()
	live := 0
	for s := range p.live {
		live += s.slots
	}
	p.mu.Unlock()
	return Health{
		Total:     p.total,
		Live:      live,
		Redialing: int(p.redialing.Load()),
		Lost:      int(p.lost.Load()),
	}
}

// Wire exposes the pool's framed-traffic counters (bytes, frames,
// compression ratio across its sessions).
func (p *Pool) Wire() *WireStats { return &p.wire }

// storeSnap files the latest telemetry snapshot piggybacked by a
// worker on a result frame.
func (p *Pool) storeSnap(s telemetry.Snapshot) {
	p.snapMu.Lock()
	p.snaps[s.Worker] = s
	p.snapMu.Unlock()
}

// Dial connects to every worker and returns the pool. It fails if any
// worker is unreachable or is not a protocol v3 worker.
func Dial(specs []WorkerSpec, opts ...Option) (*Pool, error) {
	if len(specs) == 0 {
		return nil, errors.New("dist: no workers given")
	}
	p := &Pool{
		closed:       make(chan struct{}),
		live:         map[*session]bool{},
		redialBudget: DefaultRedialBudget,
		snaps:        map[string]telemetry.Snapshot{},
	}
	for _, opt := range opts {
		opt(p)
	}
	var sessions []*session
	for _, spec := range specs {
		s, err := p.dialSession(spec.Addr, spec.Slots)
		if err != nil {
			for _, prev := range sessions {
				prev.nc.Close()
			}
			return nil, err
		}
		sessions = append(sessions, s)
		p.total += s.slots
	}
	p.free = make(chan *session, p.total)
	for _, s := range sessions {
		p.register(s)
	}
	return p, nil
}

// register makes a session's slots available to Run, unless the pool
// closed (then it closes the session and reports false). The failure
// hook is armed last, so a proactive retirement never races the
// registration it has to undo.
func (p *Pool) register(s *session) bool {
	p.mu.Lock()
	select {
	case <-p.closed:
		p.mu.Unlock()
		s.nc.Close()
		return false
	default:
	}
	p.live[s] = true
	p.mu.Unlock()
	for i := 0; i < s.slots; i++ {
		p.free <- s
	}
	s.setOnFail(func() { p.retireSession(s) })
	return true
}

// dialSession connects to addr, checks the worker's hello, and starts a
// session carrying min(advertised, maxSlots) slots (maxSlots <= 0: all
// advertised).
func (p *Pool) dialSession(addr string, maxSlots int) (*session, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dist: dialing %s: %w", addr, err)
	}
	// Deep buffers so a full coalesced frame moves in one syscall each
	// way.
	br := bufio.NewReaderSize(nc, v3BufSize)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	h, err := readHello(br, addr, &p.wire)
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetReadDeadline(time.Time{})
	slots := h.Slots
	if maxSlots > 0 && maxSlots < slots {
		slots = maxSlots
	}
	return newSession(h.Name, addr, nc, br, bufio.NewWriterSize(nc, v3BufSize), slots,
		resolveDeflateMin(p.deflateThreshold), &p.wire, p.storeSnap), nil
}

// Slots returns the pool's total concurrent capacity — the natural
// Spec.Jobs for an engine driving this pool.
func (p *Pool) Slots() int { return p.total }

// Close shuts every connection. In-flight jobs fail.
func (p *Pool) Close() {
	select {
	case <-p.closed:
		return
	default:
		close(p.closed)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for s := range p.live {
		s.nc.Close()
	}
}

// Run implements core.Runner. A context cancellation abandons the job
// but keeps its session (and token) alive; only transport failures
// retire the session.
func (p *Pool) Run(ctx context.Context, job *core.Job) core.Result {
	res := core.Result{Job: *job, ExitCode: -1, Start: time.Now()}
	var s *session
	for s == nil {
		select {
		case tok := <-p.free:
			// Discard stale tokens of sessions that died while the token
			// sat in the free channel; retireSession already accounted
			// for the capacity.
			if tok.isDead() {
				continue
			}
			s = tok
		case <-ctx.Done():
			res.Err = ctx.Err()
			res.End = time.Now()
			return res
		case <-p.closed:
			res.Err = errors.New("dist: pool closed")
			res.End = time.Now()
			return res
		}
	}
	res.Host = s.name

	req := request{
		Seq:     job.Seq,
		Slot:    job.Slot,
		Command: job.Command,
		Args:    job.Args,
		Env:     job.Env,
		Stdin:   job.Stdin,
	}
	if dl, ok := ctx.Deadline(); ok {
		if left := time.Until(dl); left > 0 {
			req.TimeoutNS = left.Nanoseconds()
		}
	}

	resp, err := s.roundTrip(ctx, req)
	res.End = time.Now()
	if err != nil {
		if ctx.Err() != nil && !s.isDead() {
			p.free <- s
			res.Err = ctx.Err()
			return res
		}
		p.retireSession(s)
		if ctx.Err() != nil {
			res.Err = ctx.Err()
		} else {
			res.Err = fmt.Errorf("dist: worker %s: %w", s.name, err)
		}
		return res
	}
	p.free <- s
	applyResponse(&res, &resp)
	return res
}

// applyResponse maps a wire response onto a core.Result.
func applyResponse(res *core.Result, resp *response) {
	res.ExitCode = resp.ExitCode
	res.Stdout = resp.Stdout
	res.Stderr = resp.Stderr
	res.TimedOut = resp.TimedOut
	if resp.StartNS > 0 {
		res.Start = nsToTime(resp.StartNS)
	}
	if resp.EndNS > 0 {
		res.End = nsToTime(resp.EndNS)
	}
	// Worker-side dispatch overhead (receive→process-start), measured on
	// the worker's own clock so it needs no cross-host clock agreement.
	if resp.RecvNS > 0 && resp.StartNS > resp.RecvNS {
		res.WorkerDispatch = time.Duration(resp.StartNS - resp.RecvNS)
	}
	res.StdinSent = resp.SentBytes
	if resp.Err != "" {
		res.Err = errors.New(resp.Err)
	}
}

// retireSession tears down a failed session: its tokens are withdrawn
// (the free channel is swept; tokens held by in-flight Runs are simply
// never returned), its slot count moves to Redialing, and one
// background redialer tries to restore the worker. sync.Once makes the
// accounting single-shot even though every in-flight Run on the session
// reports the same failure.
func (p *Pool) retireSession(s *session) {
	s.retired.Do(func() {
		s.fail()
		select {
		case <-p.closed:
			// Close tears down every session; that is shutdown, not a
			// capacity loss to account or redial.
			return
		default:
		}
		p.mu.Lock()
		delete(p.live, s)
		p.mu.Unlock()
		// Sweep stale tokens out of the free channel so restored
		// capacity cannot overflow it. Bounded pass: each live token is
		// taken out once and put back once.
		n := len(p.free)
		for i := 0; i < n; i++ {
			select {
			case tok := <-p.free:
				if tok != s {
					p.free <- tok
				}
			default:
				i = n
			}
		}
		p.redialing.Add(int64(s.slots))
		p.notifyHealth()
		go func() {
			restored := p.redialLoop(s.addr, s.slots)
			p.redialing.Add(int64(-s.slots))
			select {
			case <-p.closed:
			default:
				if restored < s.slots {
					p.lost.Add(int64(s.slots - restored))
				}
				p.notifyHealth()
			}
		}()
	})
}

// redialLoop tries to restore a worker's capacity (up to slots) within
// the redial budget. Returns how many slots came back; 0 after pool
// close does not mean the slots are lost.
func (p *Pool) redialLoop(addr string, slots int) int {
	backoff := 100 * time.Millisecond
	for attempt := 1; p.redialBudget <= 0 || attempt <= p.redialBudget; attempt++ {
		select {
		case <-p.closed:
			return 0
		case <-time.After(backoff):
		}
		if restored, ok := p.restoreWorker(addr, slots); ok {
			return restored
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
	return 0
}

// restoreWorker performs one reconnection attempt for a retired
// session's worker and registers whatever capacity it yields.
func (p *Pool) restoreWorker(addr string, slots int) (int, bool) {
	s, err := p.dialSession(addr, slots)
	if err != nil || !p.register(s) {
		return 0, false
	}
	return s.slots, true
}

// notifyHealth delivers the current Health to the WithHealthNotify
// callback, if any.
func (p *Pool) notifyHealth() {
	if p.onHealth != nil {
		p.onHealth(p.Health())
	}
}

// WorkerSnapshots returns the latest telemetry snapshot piggybacked by
// each worker, sorted by worker name. Workers that have not completed
// a job yet are absent.
func (p *Pool) WorkerSnapshots() []telemetry.Snapshot {
	p.snapMu.Lock()
	out := make([]telemetry.Snapshot, 0, len(p.snaps))
	for _, s := range p.snaps {
		out = append(out, s)
	}
	p.snapMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// RegisterMetrics exposes the pool's health gauge and per-worker
// series on reg, making the coordinator's /metrics endpoint the single
// scrape point for fleet-wide state (gopar -S --metrics-addr).
func (p *Pool) RegisterMetrics(reg *telemetry.Registry) {
	healthGauge := func(get func(Health) int) func() float64 {
		return func() float64 { return float64(get(p.Health())) }
	}
	reg.GaugeFunc("gopar_pool_slots", "Worker pool capacity, by slot state.",
		healthGauge(func(h Health) int { return h.Total }), telemetry.L("state", "total"))
	reg.GaugeFunc("gopar_pool_slots", "Worker pool capacity, by slot state.",
		healthGauge(func(h Health) int { return h.Live }), telemetry.L("state", "live"))
	reg.GaugeFunc("gopar_pool_slots", "Worker pool capacity, by slot state.",
		healthGauge(func(h Health) int { return h.Redialing }), telemetry.L("state", "redialing"))
	reg.GaugeFunc("gopar_pool_slots", "Worker pool capacity, by slot state.",
		healthGauge(func(h Health) int { return h.Lost }), telemetry.L("state", "lost"))

	// Wire-path traffic: bytes/frames shipped and the achieved
	// compression ratio.
	p.wire.Register(reg, "gopar_dist")

	// Per-worker series: the worker set is dynamic (snapshots arrive
	// with result frames), so emit them as a raw exposition block.
	reg.RegisterText(func(w io.Writer) {
		snaps := p.WorkerSnapshots()
		if len(snaps) == 0 {
			return
		}
		fmt.Fprintln(w, "# HELP gopar_worker_busy Jobs the worker is executing right now.")
		fmt.Fprintln(w, "# TYPE gopar_worker_busy gauge")
		for _, s := range snaps {
			fmt.Fprintf(w, "gopar_worker_busy{worker=%q} %d\n", s.Worker, s.Busy)
		}
		fmt.Fprintln(w, "# HELP gopar_worker_slots Advertised worker slot count.")
		fmt.Fprintln(w, "# TYPE gopar_worker_slots gauge")
		for _, s := range snaps {
			fmt.Fprintf(w, "gopar_worker_slots{worker=%q} %d\n", s.Worker, s.Slots)
		}
		fmt.Fprintln(w, "# HELP gopar_worker_jobs_total Jobs finished per worker, by outcome.")
		fmt.Fprintln(w, "# TYPE gopar_worker_jobs_total gauge")
		for _, s := range snaps {
			fmt.Fprintf(w, "gopar_worker_jobs_total{worker=%q,outcome=\"ok\"} %d\n", s.Worker, s.OK)
			fmt.Fprintf(w, "gopar_worker_jobs_total{worker=%q,outcome=\"fail\"} %d\n", s.Worker, s.Failed)
		}
	})
}
