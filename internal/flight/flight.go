// Package flight is the always-on flight recorder for long-lived
// launcher processes: a fixed-memory, lock-light black box that
// retains the last N job-lifecycle events plus periodic component
// snapshots (scheduler depth, WAL sync lag, pool health, runtime
// stats), so "what was the process doing in the last minute" can be
// answered after the fact — without having had --events pre-wired and
// without paying for it while everything is healthy.
//
// The design constraints mirror the paper's near-zero-overhead rule:
//
//   - RecordEvent is the hot path: it runs inside every telemetry
//     Publish (or directly as Spec.OnEvent) on the engine's dispatch
//     goroutines. It performs no allocation (pinned by an
//     AllocsPerRun test), takes one short sharded mutex, and never
//     blocks on I/O. Its cost is bounded by an overhead test in the
//     style of telemetry's TestDispatchOverheadBound.
//
//   - Memory is fixed at construction: two preallocated rings (a
//     large one for events, a small one for snapshots and anomaly
//     diagnostics, so a flood of events cannot evict the periodic
//     samples) plus a fixed-capacity open-job table for straggler
//     detection. Old entries are overwritten, never freed.
//
//   - Dumps are cheap enough to take from a live daemon (copy the
//     rings under their locks, merge by global sequence) and are
//     triggered four ways: SIGQUIT (NotifySignal), a panic unwinding
//     a wrapped goroutine (DumpOnPanic), an authenticated
//     GET /debug/flight (Handler), and the anomaly watchdog
//     (Options.Watchdog) which additionally stamps a diagnostic
//     record into the ring.
//
// cmd/gopar's `debug` subcommand fetches or reads a dump and renders
// it as a table, JSON, or a Chrome/Perfetto trace
// (span.WriteDumpTrace). docs/OBSERVABILITY.md is the user manual.
package flight

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// shardCount spreads event-ring writers across independent mutexes so
// the engine's per-slot dispatch workers do not serialize on one
// cacheline. Power of two; selected by the low bits of the global
// record sequence, which round-robins perfectly.
const shardCount = 8

// MaxStats bounds the per-snapshot stat count so control records stay
// fixed-size values inside the preallocated ring.
const MaxStats = 12

// Stat is one named sample inside a component snapshot.
type Stat struct {
	Name string
	V    float64
}

// Kind classifies a retained record.
type Kind uint8

const (
	// KindEvent is one core.Event copied off the telemetry stream.
	KindEvent Kind = iota
	// KindSnapshot is one component snapshot (a named source's stats).
	KindSnapshot
	// KindDiag is a diagnostic mark: a watchdog anomaly, a panic, or
	// an operator annotation.
	KindDiag
)

// String returns the record kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "event"
	case KindSnapshot:
		return "snapshot"
	case KindDiag:
		return "anomaly"
	default:
		return "unknown"
	}
}

// WatchdogConfig tunes the anomaly rules evaluated every snapshot
// interval. Zero values disable the corresponding rule except where
// noted; Options.withDefaults fills the detection defaults so an
// unconfigured recorder still watches for stuck queues, stragglers
// and pool drops.
type WatchdogConfig struct {
	// DispatchP99 fires a "dispatch-p99" anomaly when the p99 of the
	// most recent dispatch-delay samples exceeds this ceiling.
	// 0 disables (the ceiling is workload-specific).
	DispatchP99 time.Duration
	// StuckTicks fires a "queue-stuck" anomaly when the queue depth
	// stays positive and monotonically non-decreasing with zero
	// completions for this many consecutive ticks.
	StuckTicks int
	// StragglerK fires a "straggler" anomaly for running jobs whose
	// elapsed time exceeds K× the median elapsed of all running jobs
	// (and StragglerMin).
	StragglerK float64
	// StragglerMin is the minimum elapsed time before a job can be
	// called a straggler, so short bursts don't alarm.
	StragglerMin time.Duration
	// DropStats lists "source.stat" keys whose value decreasing
	// between ticks fires a "gauge-drop" anomaly — the pool-health
	// rule ("pool.live") and anything else shaped like capacity.
	DropStats []string
	// Cooldown rate-limits each anomaly kind: after one fires, the
	// same kind stays quiet for this long (default 30s).
	Cooldown time.Duration
}

// Options configures a Recorder. The zero value is usable: New fills
// every field with the documented default.
type Options struct {
	// EventBuf is the event-ring capacity in records (default 4096,
	// rounded up to a power of two and spread across shards).
	EventBuf int
	// CtrlBuf is the snapshot/diagnostic ring capacity (default 1024,
	// rounded up to a power of two).
	CtrlBuf int
	// SnapshotInterval paces the sampler and watchdog (default 1s).
	SnapshotInterval time.Duration
	// MaxTrackedJobs caps the open-job table used for straggler
	// detection (default 4096). When more jobs run concurrently the
	// overflow is counted, not tracked.
	MaxTrackedJobs int
	// Watchdog tunes the anomaly rules.
	Watchdog WatchdogConfig
	// OnDiag, when non-nil, is called (cooldown-limited, off the hot
	// path) for every recorded diagnostic — the hook binaries use to
	// log a warning line or bump a metric.
	OnDiag func(name, detail string)
	// Program labels dumps ("gopar", "gopar-serve", "gopard").
	Program string
}

func (o Options) withDefaults() Options {
	if o.EventBuf <= 0 {
		o.EventBuf = 4096
	}
	if o.CtrlBuf <= 0 {
		o.CtrlBuf = 1024
	}
	if o.SnapshotInterval <= 0 {
		o.SnapshotInterval = time.Second
	}
	if o.MaxTrackedJobs <= 0 {
		o.MaxTrackedJobs = 4096
	}
	w := &o.Watchdog
	if w.StuckTicks <= 0 {
		w.StuckTicks = 10
	}
	if w.StragglerK <= 0 {
		w.StragglerK = 8
	}
	if w.StragglerMin <= 0 {
		w.StragglerMin = 30 * time.Second
	}
	if w.Cooldown <= 0 {
		w.Cooldown = 30 * time.Second
	}
	return o
}

// eventRec is one retained lifecycle event: the global sequence that
// orders it against control records, plus the event value itself.
type eventRec struct {
	seq uint64
	ev  core.Event
}

// eventShard is one slice of the event ring with its own lock. The
// pad keeps neighbouring shards' mutexes off one cacheline.
type eventShard struct {
	mu   sync.Mutex
	ring []eventRec
	n    uint64 // total writes; ring index = n & mask
	_    [40]byte
}

// ctrlRec is one snapshot or diagnostic record. Fixed-size value —
// the stats live in an inline array, not a slice.
type ctrlRec struct {
	seq    uint64
	t      int64 // unixnano
	kind   Kind
	name   string // source name (snapshot) or anomaly kind (diag)
	detail string // diag detail, "" for snapshots
	stats  [MaxStats]Stat
	nstats int
}

// source is one registered component snapshot provider. fn appends
// its stats to buf (capped at MaxStats) and returns the result; the
// sampler reuses one scratch buffer across sources.
type source struct {
	name string
	fn   func(buf []Stat) []Stat
}

// delayRingSize bounds the dispatch-delay sample ring the watchdog
// computes p99 over (power of two).
const delayRingSize = 512

// Recorder is the flight recorder. Create with New, hook RecordEvent
// into the event stream (telemetry Bus tap or Spec.OnEvent), Start
// the sampler, and Dump whenever diagnosis is needed.
type Recorder struct {
	opt   Options
	start time.Time

	seq    atomic.Uint64 // global record sequence (total-orders the rings)
	shards [shardCount]eventShard

	ctrlMu sync.Mutex
	ctrl   []ctrlRec
	ctrlN  uint64

	// Lifecycle tallies by event type, maintained inline by
	// RecordEvent: depth and running gauges derive from these without
	// a second synchronized structure.
	counts [5]atomic.Int64

	// Dispatch-delay samples (ns), lossy overwrite ring.
	delays [delayRingSize]atomic.Int64
	delayN atomic.Uint64

	// Open-job table for straggler detection: open-addressed, fixed
	// capacity, keyed by job seq. 0 = empty, -1 = tombstone.
	openMu       sync.Mutex
	openSeqs     []int64
	openStarts   []int64 // unixnano
	openLive     int
	openOverflow atomic.Int64

	srcMu   sync.Mutex
	sources []source

	anomalies atomic.Int64

	wdMu    sync.Mutex // serializes watchdog state (tick vs tests)
	wd      watchdogState
	stopMu  sync.Mutex
	stopCh  chan struct{}
	doneCh  chan struct{}
	started bool
}

// New returns a recorder with opts (zero-value fields defaulted). It
// always registers the built-in "runtime" snapshot source
// (goroutines, heap, GC).
func New(opts Options) *Recorder {
	o := opts.withDefaults()
	r := &Recorder{opt: o, start: time.Now()}
	per := ceilPow2((o.EventBuf + shardCount - 1) / shardCount)
	for i := range r.shards {
		r.shards[i].ring = make([]eventRec, per)
	}
	r.ctrl = make([]ctrlRec, ceilPow2(o.CtrlBuf))
	tcap := ceilPow2(2 * o.MaxTrackedJobs)
	r.openSeqs = make([]int64, tcap)
	r.openStarts = make([]int64, tcap)
	r.wd.lastFired = map[string]time.Time{}
	r.wd.lastVals = map[string]float64{}
	r.AddSource("runtime", runtimeStats)
	return r
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// RecordEvent retains one lifecycle event. It is safe for concurrent
// use from every engine goroutine, allocates nothing, and never
// blocks beyond one short sharded mutex — it is designed to sit
// inside telemetry.Bus taps and Spec.OnEvent on the dispatch hot
// path.
func (r *Recorder) RecordEvent(ev core.Event) {
	seq := r.seq.Add(1)
	sh := &r.shards[seq&(shardCount-1)]
	sh.mu.Lock()
	sh.ring[sh.n&uint64(len(sh.ring)-1)] = eventRec{seq: seq, ev: ev}
	sh.n++
	sh.mu.Unlock()

	if int(ev.Type) < len(r.counts) {
		r.counts[ev.Type].Add(1)
	}
	switch ev.Type {
	case core.EventStarted:
		r.trackStart(int64(ev.Seq), ev.Time.UnixNano())
	case core.EventFinished, core.EventKilled:
		r.trackEnd(int64(ev.Seq))
		if d := ev.DispatchDelay; d > 0 {
			i := r.delayN.Add(1)
			r.delays[i&(delayRingSize-1)].Store(int64(d))
		}
	}
}

// trackStart inserts seq into the open-job table (overwriting a stale
// entry for the same seq — a retry restarted the clock).
func (r *Recorder) trackStart(seq, startNS int64) {
	r.openMu.Lock()
	defer r.openMu.Unlock()
	mask := uint64(len(r.openSeqs) - 1)
	h := hash64(uint64(seq)) & mask
	firstTomb := -1
	for i := uint64(0); i <= mask; i++ {
		j := (h + i) & mask
		switch r.openSeqs[j] {
		case seq:
			r.openStarts[j] = startNS
			return
		case -1:
			if firstTomb < 0 {
				firstTomb = int(j)
			}
		case 0:
			if r.openLive >= r.opt.MaxTrackedJobs {
				r.openOverflow.Add(1)
				return
			}
			if firstTomb >= 0 {
				j = uint64(firstTomb)
			}
			r.openSeqs[j] = seq
			r.openStarts[j] = startNS
			r.openLive++
			return
		}
	}
	r.openOverflow.Add(1)
}

// trackEnd removes seq from the open-job table.
func (r *Recorder) trackEnd(seq int64) {
	r.openMu.Lock()
	defer r.openMu.Unlock()
	mask := uint64(len(r.openSeqs) - 1)
	h := hash64(uint64(seq)) & mask
	for i := uint64(0); i <= mask; i++ {
		j := (h + i) & mask
		switch r.openSeqs[j] {
		case seq:
			r.openSeqs[j] = -1
			r.openStarts[j] = 0
			r.openLive--
			return
		case 0:
			return
		}
	}
}

// hash64 is the splitmix64 finalizer — a cheap, well-mixed hash for
// the open-address probe.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// recordCtrl stamps one snapshot/diag record into the control ring.
func (r *Recorder) recordCtrl(kind Kind, name, detail string, stats []Stat) {
	seq := r.seq.Add(1)
	r.ctrlMu.Lock()
	rec := &r.ctrl[r.ctrlN&uint64(len(r.ctrl)-1)]
	rec.seq = seq
	rec.t = time.Now().UnixNano()
	rec.kind = kind
	rec.name = name
	rec.detail = detail
	rec.nstats = copy(rec.stats[:], stats)
	r.ctrlN++
	r.ctrlMu.Unlock()
}

// Diag records a diagnostic mark (an anomaly, a panic, an operator
// annotation) and invokes the OnDiag hook. Unlike watchdog-raised
// anomalies it is not cooldown-limited: callers own their rate.
func (r *Recorder) Diag(name, detail string) {
	r.recordCtrl(KindDiag, name, detail, nil)
	r.anomalies.Add(1)
	if r.opt.OnDiag != nil {
		r.opt.OnDiag(name, detail)
	}
}

// AddSource registers a named component snapshot provider sampled
// every SnapshotInterval. fn must append at most MaxStats stats to
// buf and return it; it runs on the sampler goroutine, so it may take
// locks but must not block indefinitely. Re-adding a name replaces
// the previous source.
func (r *Recorder) AddSource(name string, fn func(buf []Stat) []Stat) {
	r.srcMu.Lock()
	defer r.srcMu.Unlock()
	for i := range r.sources {
		if r.sources[i].name == name {
			r.sources[i].fn = fn
			return
		}
	}
	r.sources = append(r.sources, source{name: name, fn: fn})
}

// RemoveSource unregisters a snapshot provider (a queue being
// deleted, a pool being closed).
func (r *Recorder) RemoveSource(name string) {
	r.srcMu.Lock()
	defer r.srcMu.Unlock()
	for i := range r.sources {
		if r.sources[i].name == name {
			r.sources = append(r.sources[:i], r.sources[i+1:]...)
			return
		}
	}
}

// Events returns the total number of events recorded (retained or
// since overwritten).
func (r *Recorder) Events() int64 {
	var n int64
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += int64(sh.n)
		sh.mu.Unlock()
	}
	return n
}

// Anomalies returns the total diagnostic records raised.
func (r *Recorder) Anomalies() int64 { return r.anomalies.Load() }

// gauges derives the live depth/running counters from the lifecycle
// tallies.
func (r *Recorder) gauges() (depth, running, finished, killed int64) {
	queued := r.counts[core.EventQueued].Load()
	started := r.counts[core.EventStarted].Load()
	finished = r.counts[core.EventFinished].Load()
	killed = r.counts[core.EventKilled].Load()
	depth = queued - started
	if depth < 0 {
		depth = 0
	}
	running = started - finished - killed
	if running < 0 {
		running = 0
	}
	return depth, running, finished, killed
}

// EngineStats is the built-in source derived from the event stream
// itself: queue depth, running jobs, completions. Registered by
// binaries as "engine" so dumps carry the dispatch gauges even when
// no component registered richer sources.
func (r *Recorder) EngineStats(buf []Stat) []Stat {
	depth, running, finished, killed := r.gauges()
	return append(buf,
		Stat{"depth", float64(depth)},
		Stat{"running", float64(running)},
		Stat{"finished", float64(finished)},
		Stat{"killed", float64(killed)},
		Stat{"retried", float64(r.counts[core.EventRetried].Load())},
	)
}

// runtimeStats is the always-registered Go runtime source.
func runtimeStats(buf []Stat) []Stat {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return append(buf,
		Stat{"goroutines", float64(runtime.NumGoroutine())},
		Stat{"heap_alloc_bytes", float64(ms.HeapAlloc)},
		Stat{"heap_objects", float64(ms.HeapObjects)},
		Stat{"gc_cycles", float64(ms.NumGC)},
		Stat{"gc_pause_total_ms", float64(ms.PauseTotalNs) / 1e6},
	)
}

// Start launches the sampler/watchdog goroutine. Idempotent.
func (r *Recorder) Start() {
	r.stopMu.Lock()
	defer r.stopMu.Unlock()
	if r.started {
		return
	}
	r.started = true
	r.stopCh = make(chan struct{})
	r.doneCh = make(chan struct{})
	go r.loop(r.stopCh, r.doneCh)
}

// Stop halts the sampler. Idempotent; the recorder remains usable
// (RecordEvent, Dump) after Stop.
func (r *Recorder) Stop() {
	r.stopMu.Lock()
	defer r.stopMu.Unlock()
	if !r.started {
		return
	}
	r.started = false
	close(r.stopCh)
	<-r.doneCh
}

func (r *Recorder) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(r.opt.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			r.Tick()
		}
	}
}

// Tick takes one snapshot pass and evaluates the watchdog rules. The
// sampler calls it every SnapshotInterval; tests call it directly for
// deterministic timing.
func (r *Recorder) Tick() {
	r.wdMu.Lock()
	defer r.wdMu.Unlock()

	r.srcMu.Lock()
	srcs := append(make([]source, 0, len(r.sources)), r.sources...)
	r.srcMu.Unlock()

	scratch := r.wd.scratch[:0]
	for _, s := range srcs {
		stats := s.fn(scratch)
		if len(stats) > MaxStats {
			stats = stats[:MaxStats]
		}
		r.recordCtrl(KindSnapshot, s.name, "", stats)
		r.watchDrops(s.name, stats)
		scratch = stats[:0]
	}
	r.wd.scratch = scratch
	r.watchDispatch()
	r.watchStuck()
	r.watchStragglers()
}
