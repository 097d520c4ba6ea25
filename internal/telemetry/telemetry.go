// Package telemetry is the runtime observability subsystem for the
// launcher stack: live job-lifecycle events while a run is in flight,
// instead of the after-the-fact joblog analysis `gopar report --joblog` does.
//
// The design keeps the paper's constraint — near-zero orchestration
// overhead — front and center:
//
//   - Bus is a non-blocking fan-out the engine publishes core.Event
//     values to (Spec.OnEvent = bus.Publish). Synchronous taps are
//     atomic-counter updates only; asynchronous subscribers receive
//     events through a bounded buffer and lose events (counted, never
//     blocking) if they fall behind. A slow scraper or a stalled disk
//     can therefore never slow dispatch.
//
//   - Registry holds counters, gauges and histograms and writes the
//     Prometheus text exposition format; Serve exposes it over HTTP
//     (`gopar --metrics-addr`, `gopard -metrics-addr`).
//
//   - RunMetrics is the standard engine instrumentation: jobs by
//     state, slot occupancy, queue depth, dispatch latency and
//     throughput (procs/s — the paper's headline metric).
//
//   - Snapshot is the compact worker-side summary internal/dist
//     piggybacks on its protocol so a coordinator exposes per-node and
//     fleet-wide series from one endpoint.
//
// The same core.Event interface is fed by real engines, remote workers
// and the simulated cluster, so live dashboards work identically for
// real and simulated runs.
package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Subscription is one asynchronous consumer of a Bus. Receive events
// from C; the channel is closed by Bus.Close after the final publish.
type Subscription struct {
	// C delivers events in publish order. Bounded: when the consumer
	// lags more than the buffer, newest events are dropped (and
	// counted) rather than stalling publishers.
	C <-chan core.Event

	c       chan core.Event
	dropped atomic.Int64
}

// Dropped reports how many events this subscriber lost to a full
// buffer.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Bus fans job-lifecycle events out to taps (synchronous, hot-path
// cheap) and subscriptions (asynchronous, bounded, lossy). Publish
// never blocks, whatever consumers do.
//
// The consumer set lives in an immutable snapshot swapped by writers
// (Tap/Subscribe/Close are rare) so Publish — called once per lifecycle
// transition of every job — is lock-free: one atomic pointer load plus
// the deliveries, with no RWMutex cacheline for all engine workers to
// contend on.
type Bus struct {
	state atomic.Pointer[busState]
	// inflight counts Publishes between their state load and their last
	// channel send; Close waits for it to drain after swapping in the
	// closed state, so it never closes a channel mid-send.
	inflight atomic.Int64
	mu       sync.Mutex // serializes writers only

	published atomic.Int64
	dropped   atomic.Int64
}

// busState is one immutable consumer-set snapshot.
type busState struct {
	taps   []func(core.Event)
	subs   []*Subscription
	closed bool
}

var emptyBusState = &busState{}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

func (b *Bus) load() *busState {
	if st := b.state.Load(); st != nil {
		return st
	}
	return emptyBusState
}

// Tap registers fn to run synchronously inside every Publish. It must
// be concurrency-safe and restricted to cheap work (atomic counter
// updates); anything slower belongs in a Subscription.
func (b *Bus) Tap(fn func(core.Event)) {
	b.mu.Lock()
	old := b.load()
	st := &busState{
		taps:   append(append([]func(core.Event){}, old.taps...), fn),
		subs:   old.subs,
		closed: old.closed,
	}
	b.state.Store(st)
	b.mu.Unlock()
}

// Subscribe registers an asynchronous consumer with the given buffer
// capacity (<=0 selects 4096). Consume from the returned
// Subscription's C until it is closed.
func (b *Bus) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 4096
	}
	s := &Subscription{c: make(chan core.Event, buf)}
	s.C = s.c
	b.mu.Lock()
	old := b.load()
	if old.closed {
		close(s.c)
	} else {
		st := &busState{
			taps:   old.taps,
			subs:   append(append([]*Subscription{}, old.subs...), s),
			closed: false,
		}
		b.state.Store(st)
	}
	b.mu.Unlock()
	return s
}

// Publish delivers one event: taps run inline, subscribers get a
// non-blocking send (dropped and counted when their buffer is full).
// The signature matches core.Spec.OnEvent. Publishing after Close is a
// counted drop.
func (b *Bus) Publish(ev core.Event) {
	b.inflight.Add(1)
	st := b.load()
	if st.closed {
		b.inflight.Add(-1)
		b.dropped.Add(1)
		return
	}
	for _, tap := range st.taps {
		tap(ev)
	}
	for _, s := range st.subs {
		select {
		case s.c <- ev:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.inflight.Add(-1)
	b.published.Add(1)
}

// Unsubscribe detaches one subscription and closes its channel. Needed
// by consumers that come and go while the bus lives on — a job-service
// watch stream whose HTTP client disconnected mid-run must not leave a
// dead channel absorbing (and drop-counting) every later publish.
// Unsubscribing twice, or after Close, is a no-op.
func (b *Bus) Unsubscribe(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.load()
	if old.closed {
		return
	}
	idx := -1
	for i, cand := range old.subs {
		if cand == s {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	subs := make([]*Subscription, 0, len(old.subs)-1)
	subs = append(subs, old.subs[:idx]...)
	subs = append(subs, old.subs[idx+1:]...)
	b.state.Store(&busState{taps: old.taps, subs: subs, closed: false})
	// Mirror Close: publishers that loaded the old snapshot may still be
	// sending into s; wait them out before closing its channel.
	for b.inflight.Load() > 0 {
		runtime.Gosched()
	}
	close(s.c)
}

// Close marks the bus finished and closes every subscription channel.
// Call after the engine run returns: every already-published event is
// still buffered for consumers to drain.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.load()
	if old.closed {
		return
	}
	b.state.Store(&busState{taps: old.taps, subs: nil, closed: true})
	// Publishes that loaded the pre-close state may still be sending;
	// wait them out before closing their target channels.
	for b.inflight.Load() > 0 {
		runtime.Gosched()
	}
	for _, s := range old.subs {
		close(s.c)
	}
}

// Published returns the number of events accepted by Publish.
func (b *Bus) Published() int64 { return b.published.Load() }

// Dropped returns the total events lost across all subscribers.
func (b *Bus) Dropped() int64 { return b.dropped.Load() }
