package dist

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// WorkerTelemetry tracks a worker's execution counters. Every Serve
// call keeps one (supplied or internal) and piggybacks a Snapshot on
// each result frame; gopard additionally exposes the same counters on
// its own /metrics endpoint via Register.
type WorkerTelemetry struct {
	name  string
	slots int

	busy    atomic.Int64
	started atomic.Int64
	ok      atomic.Int64
	failed  atomic.Int64
}

// NewWorkerTelemetry returns zeroed worker counters. Name and slots
// are filled in by Serve from its WorkerConfig.
func NewWorkerTelemetry() *WorkerTelemetry { return &WorkerTelemetry{} }

// Snapshot captures the current counters.
func (t *WorkerTelemetry) Snapshot() telemetry.Snapshot {
	return telemetry.Snapshot{
		Worker:   t.name,
		Slots:    t.slots,
		Busy:     int(t.busy.Load()),
		Started:  t.started.Load(),
		OK:       t.ok.Load(),
		Failed:   t.failed.Load(),
		UnixNano: time.Now().UnixNano(),
	}
}

// Register exposes the worker counters on reg under gopard_* names.
func (t *WorkerTelemetry) Register(reg *telemetry.Registry) {
	reg.GaugeFunc("gopard_slots", "Advertised concurrent job slots.",
		func() float64 { return float64(t.slots) })
	reg.GaugeFunc("gopard_busy", "Jobs executing right now.",
		func() float64 { return float64(t.busy.Load()) })
	reg.GaugeFunc("gopard_jobs_started_total", "Jobs received for execution.",
		func() float64 { return float64(t.started.Load()) })
	reg.GaugeFunc("gopard_jobs_finished_total", "Jobs finished, by outcome.",
		func() float64 { return float64(t.ok.Load()) }, telemetry.L("outcome", "ok"))
	reg.GaugeFunc("gopard_jobs_finished_total", "Jobs finished, by outcome.",
		func() float64 { return float64(t.failed.Load()) }, telemetry.L("outcome", "fail"))
}

// WorkerConfig configures Serve.
type WorkerConfig struct {
	// Name identifies this worker in joblogs (defaults to the
	// listener address).
	Name string
	// Slots advertised to coordinators: how many jobs one connection
	// runs at once. Defaults to 8.
	Slots int
	// Runner executes jobs (default: real processes via ExecRunner).
	Runner core.Runner
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, is the counter set snapshots are taken
	// from (share it with a metrics endpoint). Nil allocates an
	// internal one — result frames always carry telemetry either way.
	Telemetry *WorkerTelemetry
	// DeflateThreshold is the payload size (bytes) above which stdout
	// and stderr are shipped deflated. 0 means DefaultDeflateThreshold;
	// negative disables compression.
	DeflateThreshold int
	// Wire, when non-nil, accumulates framed-traffic counters (bytes,
	// frames, compression ratio) for this worker's connections.
	Wire *WireStats
}

// resolveDeflateMin maps the user-facing threshold convention (0 =
// default, negative = off) onto the codec's (0 = off).
func resolveDeflateMin(n int) int {
	switch {
	case n == 0:
		return DefaultDeflateThreshold
	case n < 0:
		return 0
	default:
		return n
	}
}

// Serve accepts coordinator connections on l and executes their jobs
// until ctx is done or the listener fails. Each connection is served by
// its own goroutines and runs up to cfg.Slots jobs at once.
func Serve(ctx context.Context, l net.Listener, cfg WorkerConfig) error {
	if cfg.Slots < 1 {
		cfg.Slots = 8
	}
	if cfg.Name == "" {
		cfg.Name = l.Addr().String()
	}
	if cfg.Runner == nil {
		cfg.Runner = &core.ExecRunner{}
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = NewWorkerTelemetry()
	}
	cfg.Telemetry.name = cfg.Name
	cfg.Telemetry.slots = cfg.Slots
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	defer l.Close()
	defer context.AfterFunc(ctx, func() { l.Close() })()
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := serveConn(ctx, conn, cfg); err != nil && !errors.Is(err, context.Canceled) {
				logf("dist worker: connection from %s ended: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// serveConn serves one connection: a hello, then requests in
// CRC-checked binary frames, decoded zero-copy into pooled frame
// buffers. A run queue holds them until one of cfg.Slots goroutines
// (one reused core.Job each) is free, cancel frames drop or kill them,
// and responses leave through a coalescing writer that piggybacks one
// telemetry snapshot per frame. The steady-state path allocates nothing
// per job. When the connection ends, so do its jobs: no one is left to
// take their results. A worker shutting down hangs up, so its
// coordinators see the loss instead of waiting on jobs it will never
// run.
func serveConn(ctx context.Context, conn net.Conn, cfg WorkerConfig) error {
	if cfg.Telemetry == nil { // Serve fills this in; guard direct callers
		cfg.Telemetry = NewWorkerTelemetry()
		cfg.Telemetry.name = cfg.Name
		cfg.Telemetry.slots = cfg.Slots
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	bw := bufio.NewWriterSize(conn, v3BufSize)
	h := hello{Version: protocolVersion, Name: cfg.Name, Slots: cfg.Slots}
	if err := writeFrameV3(bw, encodeHelloV3(nil, h), cfg.Wire); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, v3BufSize)
	if err := refuseJSON(br, "coordinator "+conn.RemoteAddr().String()); err != nil {
		return err
	}

	deflateMin := resolveDeflateMin(cfg.DeflateThreshold)
	respq := make(chan response, 4*cfg.Slots)
	writeErr := make(chan error, 1)
	go func() {
		err := v3ResultsLoop(bw, respq, cfg.Telemetry, deflateMin, cfg.Wire)
		for range respq { // a failed writer still drains, so no sender blocks
		}
		writeErr <- err
	}()

	cctx, cancel := context.WithCancel(ctx)
	rq := newRunQueue(cctx, cfg.Slots)
	var jobs sync.WaitGroup
	for i := 0; i < cfg.Slots; i++ {
		jobs.Add(1)
		go func(slot int) {
			defer jobs.Done()
			// One Job struct per slot goroutine, fully overwritten per
			// dispatch (core.Job is exactly the six wire fields).
			var job core.Job
			for {
				it, jctx, ok := rq.next(slot)
				if !ok {
					return
				}
				resp := executeV3(jctx, cfg.Runner, cfg.Telemetry, &job, it.req(), it.fr.recvNS)
				// The runner has returned, so nothing aliases the frame
				// any more (Runner contract: inputs are only valid
				// during Run); drop our reference before queueing the
				// response so the frame can recycle immediately.
				it.fr.release()
				respq <- resp
			}
		}(i)
	}

	var readErr error
	var ids []uint64
	var dropped []jobItemV3
	for readErr == nil {
		// Each frame is read into its own pooled buffer: the decoded
		// requests alias it until their jobs finish, so the reader must
		// not reuse it for the next frame.
		fr := getJobsFrame()
		typ, body, err := readFrameV3(br, &fr.buf, cfg.Wire)
		switch {
		case err != nil:
		case typ == frameJobsV3:
			if err = decodeJobsV3(body, fr); err == nil && len(fr.reqs) > 0 {
				fr.recvNS = time.Now().UnixNano()
				fr.refs.Store(int32(len(fr.reqs)))
				if err = rq.push(fr); err == nil {
					continue
				}
			}
		case typ == frameCancelV3:
			if ids, err = decodeCancelV3(body, ids); err == nil {
				dropped = rq.cancel(ids, dropped[:0])
				for _, it := range dropped {
					respq <- response{ID: it.req().ID, ExitCode: -1, RecvNS: it.fr.recvNS,
						Err: "dist: cancelled before it started"}
					it.fr.release()
				}
			}
		default:
			err = errUnexpectedFrame
		}
		putJobsFrame(fr)
		readErr = err
	}
	cancel()
	rq.close()
	jobs.Wait()
	close(respq)
	if werr := <-writeErr; werr != nil && eofAsNil(readErr) == nil {
		return werr
	}
	return eofAsNil(readErr)
}

func eofAsNil(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || err.Error() == "EOF" {
		return nil
	}
	return err
}

// jobItemV3 points one slot worker at one request inside a decoded
// (refcounted) jobs frame.
type jobItemV3 struct {
	fr  *jobsFrame
	idx int
}

func (it jobItemV3) req() *request { return &it.fr.reqs[it.idx] }

// runQueue is a connection's worker-side run queue: a ring of the
// credited jobs no slot has started yet, and what each slot runs. One
// lock covers both, so a cancel frame applies atomically: a slot freed
// by one of its kills cannot start a job it drops.
type runQueue struct {
	mu      sync.Mutex
	ready   sync.Cond
	ctx     context.Context // the connection's
	items   []jobItemV3
	head, n int
	closed  bool
	slots   []runSlot
}

// runSlot is a slot's running request id and its context, reused from
// job to job until a cancel ends it.
type runSlot struct {
	id     uint64
	ctx    context.Context
	cancel context.CancelFunc
}

func newRunQueue(ctx context.Context, slots int) *runQueue {
	q := &runQueue{ctx: ctx, items: make([]jobItemV3, slots*windowDepth), slots: make([]runSlot, slots)}
	q.ready.L = &q.mu
	return q
}

func (q *runQueue) at(i int) *jobItemV3 { return &q.items[(q.head+i)%len(q.items)] }

// push queues fr's requests. A coordinator keeps at most its window
// queued or running here, so a full ring is a protocol error.
func (q *runQueue) push(fr *jobsFrame) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n+len(fr.reqs) > len(q.items) {
		return errWindowOverrun
	}
	for i := range fr.reqs {
		q.n++
		*q.at(q.n - 1) = jobItemV3{fr: fr, idx: i}
		q.ready.Signal() // one idle slot per job, not a stampede
	}
	return nil
}

// remove takes the i-th queued job out of the ring.
func (q *runQueue) remove(i int) jobItemV3 {
	it := *q.at(i)
	for ; i > 0; i-- {
		*q.at(i) = *q.at(i - 1)
	}
	*q.at(0) = jobItemV3{}
	q.head = (q.head + 1) % len(q.items)
	q.n--
	return it
}

// next blocks until slot can start a job and returns it with its
// context; false once the queue or the connection ended.
func (q *runQueue) next(slot int) (jobItemV3, context.Context, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.ready.Wait()
	}
	if q.closed || q.ctx.Err() != nil {
		return jobItemV3{}, nil, false
	}
	it, s := q.remove(0), &q.slots[slot]
	if s.ctx == nil || s.ctx.Err() != nil {
		s.ctx, s.cancel = context.WithCancel(q.ctx)
	}
	s.id = it.req().ID
	return it, s.ctx, true
}

// cancel applies a cancel frame: named queued jobs move to dropped for
// the caller to answer, named running ones have their context
// cancelled. A slot keeps its last id until its next job, so naming a
// job that just finished only costs that slot a fresh context; a slot
// that has run nothing yet (id 0) has nothing to cancel.
func (q *runQueue) cancel(ids []uint64, dropped []jobItemV3) []jobItemV3 {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, id := range ids {
		for i := 0; i < q.n; i++ {
			if q.at(i).req().ID == id {
				dropped = append(dropped, q.remove(i))
				break
			}
		}
		for i := range q.slots {
			if q.slots[i].id == id && q.slots[i].cancel != nil {
				q.slots[i].cancel()
			}
		}
	}
	return dropped
}

// close ends the queue: idle slots return and queued jobs are dropped
// unanswered.
func (q *runQueue) close() {
	q.mu.Lock()
	for q.n > 0 {
		q.remove(0).fr.release()
	}
	q.closed = true
	q.mu.Unlock()
	q.ready.Broadcast()
}

// executeV3 runs one zero-copy decoded request in a caller-owned Job.
// The telemetry snapshot rides once per result frame (the writer adds
// it), keeping the per-job path allocation-free.
func executeV3(ctx context.Context, runner core.Runner, wt *WorkerTelemetry, job *core.Job, req *request, recvNS int64) response {
	job.Seq = req.Seq
	job.Slot = req.Slot
	job.Command = req.Command
	job.Args = req.Args
	job.Env = req.Env
	job.Stdin = req.Stdin
	runCtx := ctx
	if req.TimeoutNS > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNS))
		defer cancel()
	}
	wt.started.Add(1)
	wt.busy.Add(1)
	res := runner.Run(runCtx, job)
	wt.busy.Add(-1)
	resp := response{
		ID:        req.ID,
		ExitCode:  res.ExitCode,
		Stdout:    res.Stdout,
		Stderr:    res.Stderr,
		StartNS:   res.Start.UnixNano(),
		EndNS:     res.End.UnixNano(),
		RecvNS:    recvNS,
		TimedOut:  res.TimedOut || (req.TimeoutNS > 0 && runCtx.Err() == context.DeadlineExceeded),
		SentBytes: res.StdinSent,
	}
	if res.Err != nil {
		resp.Err = res.Err.Error()
	}
	if res.OK() && !resp.TimedOut {
		wt.ok.Add(1)
	} else {
		wt.failed.Add(1)
	}
	return resp
}
