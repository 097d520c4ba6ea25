package dist

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// errSessionDead reports a multiplexed session whose connection already
// failed.
var errSessionDead = errors.New("dist: worker session lost")

// errNoAnswer reports a round trip given up on because its worker did
// not answer in time (see timeoutBackstop).
var errNoAnswer = errors.New("no answer within the --timeout backstop")

// respChanPool recycles the per-round-trip wake channels, each once
// nothing can send on it: after its response was received, or once its
// round trip was marked abandoned (deliver never sends to those).
var respChanPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// session multiplexes one worker's whole credit window over a single
// connection. Run calls enqueue requests on sendq (a writer goroutine
// coalesces them into frames), park on a per-id channel, and are woken
// by the reader goroutine when their response arrives in some result
// frame. The window is bounded outside the session by the pool's
// credits (slots×windowDepth copies of the session in its free
// channel); worker-side, a run queue holds the credited jobs until one
// of its slots is free.
type session struct {
	name  string
	addr  string
	slots int
	nc    net.Conn

	sendq chan request

	// deflateMin and wire are inherited from the pool: the stdin
	// compression threshold and the shared traffic counters.
	deflateMin int
	wire       *WireStats
	// onSnap receives the telemetry snapshot piggybacked on result
	// frames.
	onSnap func(telemetry.Snapshot)
	// free is the pool's credit channel (set by register).
	free chan<- *session

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]call
	// onFail, when set, runs (once, on its own goroutine) after the
	// session dies — the pool uses it to retire capacity proactively
	// instead of waiting for the next job to trip over the dead session.
	onFail func()

	dead     chan struct{}
	failOnce sync.Once
	// retired guards the pool-side capacity accounting so that many
	// concurrent Run failures retire the session exactly once.
	retired sync.Once
}

func newSession(name, addr string, nc net.Conn, br *bufio.Reader, bw *bufio.Writer, slots, deflateMin int, wire *WireStats, onSnap func(telemetry.Snapshot)) *session {
	s := &session{
		name:       name,
		addr:       addr,
		slots:      slots,
		nc:         nc,
		sendq:      make(chan request, maxBatchItemsV3),
		deflateMin: deflateMin,
		wire:       wire,
		onSnap:     onSnap,
		pending:    map[uint64]call{},
		dead:       make(chan struct{}),
	}
	go s.readLoopV3(br)
	go func() {
		if err := v3JobsLoop(bw, s.sendq, s.dead, deflateMin, wire); err != nil {
			s.fail()
		}
	}()
	return s
}

// fail marks the session dead and tears down the connection; all parked
// round-trips unblock through the dead channel.
func (s *session) fail() {
	s.failOnce.Do(func() {
		close(s.dead)
		s.nc.Close()
		s.mu.Lock()
		fn := s.onFail
		s.mu.Unlock()
		if fn != nil {
			go fn()
		}
	})
}

// setOnFail installs the death notification hook. The session's reader
// starts before the pool registers its tokens, so the hook arrives
// late; if the session already died in that window, fire immediately.
func (s *session) setOnFail(fn func()) {
	s.mu.Lock()
	s.onFail = fn
	s.mu.Unlock()
	if s.isDead() {
		fn()
	}
}

func (s *session) isDead() bool {
	select {
	case <-s.dead:
		return true
	default:
		return false
	}
}

// call is a round trip awaiting its response. done is its context's
// Done channel, which groups the round trips one cancellation ends;
// cancelled marks one a cancel frame already named. ch is nil once the
// round trip's own Run gave up on it — only that Run clears it, under
// mu — and deliver then returns the credit instead of waking anyone.
type call struct {
	ch        chan response
	done      <-chan struct{}
	cancelled bool
}

// deliver hands one response to whichever round trip is parked on its
// id. An abandoned round trip's response says the worker is done with
// the job, so its credit goes back to the pool.
func (s *session) deliver(resp response) {
	s.mu.Lock()
	c, ok := s.pending[resp.ID]
	delete(s.pending, resp.ID)
	s.mu.Unlock()
	switch {
	case !ok:
	case c.ch == nil:
		s.free <- s
	default:
		c.ch <- resp // buffered; never blocks the reader
	}
}

// readLoopV3 decodes binary result frames. The frame buffer and
// response scratch are reused across frames; result payloads were
// copied out by the decoder, so recycling is safe the moment delivery
// finishes.
func (s *session) readLoopV3(br *bufio.Reader) {
	var buf []byte
	var resps []response
	for {
		typ, body, err := readFrameV3(br, &buf, s.wire)
		if err != nil || typ != frameResultsV3 {
			s.fail()
			return
		}
		rs, snap, hasSnap, derr := decodeResultsV3(body, resps, s.name)
		resps = rs
		if derr != nil {
			s.fail()
			return
		}
		for i := range resps {
			s.deliver(resps[i])
		}
		if hasSnap && s.onSnap != nil {
			s.onSnap(snap)
		}
	}
}

// roundTrip ships one request and waits for its response. The credit
// goes back to the pool unless the session dies, which takes its
// credits with it. A context cancellation abandons the job but leaves
// the session healthy: one cancelled job must not tear down a
// multiplexed connection carrying its neighbours. So does expire
// firing first (nil: never), which abandons this job alone with
// errNoAnswer.
func (s *session) roundTrip(ctx context.Context, req request, expire <-chan time.Time) (response, error) {
	ch := respChanPool.Get().(chan response)
	// Checked and queued under mu, so no job can reach the send queue
	// behind the cancel that abandon sent for its cohort.
	s.mu.Lock()
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		respChanPool.Put(ch)
		s.free <- s
		return response{}, err
	}
	s.nextID++
	req.ID = s.nextID
	s.pending[req.ID] = call{ch: ch, done: ctx.Done()}
	select {
	case s.sendq <- req:
	case <-s.dead:
	}
	s.mu.Unlock()
	select {
	case resp := <-ch:
		respChanPool.Put(ch)
		s.free <- s
		return resp, nil
	case <-ctx.Done():
		return s.abandon(req.ID, ch, true, ctx.Err())
	case <-expire:
		return s.abandon(req.ID, ch, false, errNoAnswer)
	case <-s.dead:
		return response{}, errSessionDead
	}
}

// abandon gives up on round trip id with err. With cohort set (its
// context ended) the first of a cohort to get here cancels every round
// trip pending under the same context — a halted engine's whole window
// on this worker — in one cancel frame, which the worker applies
// atomically. The others keep their channels, so each still receives
// the worker's answer when its own Run gets here. Abandoned round trips
// keep their credits until deliver sees the worker's answers.
func (s *session) abandon(id uint64, ch chan response, cohort bool, err error) (response, error) {
	s.mu.Lock()
	c, ok := s.pending[id]
	if !ok { // the reader took the response and is filling ch
		s.mu.Unlock()
		resp := <-ch
		respChanPool.Put(ch)
		s.free <- s
		return resp, nil
	}
	var ids []uint64
	if !c.cancelled {
		ids = append(ids, id)
	}
	s.pending[id] = call{done: c.done, cancelled: true}
	if cohort {
		for cid, cc := range s.pending {
			if !cc.cancelled && cc.done == c.done {
				cc.cancelled = true
				s.pending[cid] = cc
				ids = append(ids, cid)
			}
		}
	}
	if len(ids) > 0 {
		select {
		case s.sendq <- request{cancel: ids}:
		case <-s.dead:
		}
	}
	s.mu.Unlock()
	respChanPool.Put(ch)
	return response{}, err
}
