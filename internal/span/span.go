// Package span records and analyzes per-job phase timelines — the
// overhead-attribution layer the paper's argument rests on. Where
// internal/telemetry answers "how is the run doing right now", span
// answers "where did every second of this run go": how much of each
// job's wall time was template rendering, queue wait, dispatch,
// container startup, data staging, execution, and result collection.
//
// The pipeline has three stages:
//
//   - Recorder consumes the same core.Event stream the telemetry bus
//     carries (real engines, simulated cluster instances and remote
//     workers all emit it) and assembles one Span per job, handing each
//     completed span to its sinks: JSONLWriter (the --spans file) and
//     TraceWriter (the Chrome/Perfetto trace). Attach it as a bus
//     subscription consumer — never a synchronous tap — so span
//     assembly stays off the dispatch hot path.
//
//   - Both sinks survive interrupted runs: the Recorder flushes
//     in-flight spans on Close, Parse tolerates a truncated final line,
//     and a trace cut mid-run loads once its closing bracket is added.
//
//   - Analyze decomposes a set of spans into the paper's measurements:
//     per-phase totals and latency percentiles, total wall time split
//     into exec vs attributed launcher overhead, slot utilization over
//     time, the critical path through the run, and the headline rates
//     (dispatch procs/s per instance, container startup tax, WMS
//     overhead comparison).
package span

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// Phase names, in the order they occur in a job's life. These are the
// stable keys used in the wire format and report output.
const (
	PhaseRender         = "render"
	PhaseQueueWait      = "queue-wait"
	PhaseDispatch       = "dispatch"
	PhaseWorkerDispatch = "worker-dispatch"
	PhaseContainerStart = "container-start"
	PhaseStageIn        = "stage-in"
	PhaseExec           = "exec"
	PhaseStageOut       = "stage-out"
	PhaseCollect        = "collect"
)

// Span is one job's phase timeline. Timestamps are wall clock (virtual
// time mapped onto the Unix epoch for simulated runs); durations are
// the attributed phase costs. A phase an emitter could not attribute is
// zero.
type Span struct {
	// Seq is the job's 1-based input sequence number (joins to the
	// joblog and event stream).
	Seq int
	// Slot is the execution slot the job ran in.
	Slot int
	// Attempt is the total attempts the job took (>1 after retries).
	Attempt int
	// Host is where the job ran ("" / ":" = local).
	Host string
	// Command is the rendered command line ("" for Func-runner jobs).
	Command string
	// OK, Exit and Killed mirror the job's terminal event.
	OK     bool
	Exit   int
	Killed bool
	// Incomplete marks a span flushed before its terminal event
	// arrived (interrupted run); only Queued/Started and the phases
	// known at flush time are meaningful.
	Incomplete bool

	// Queued is when the rendered job entered the dispatch queue,
	// Started when it acquired a slot, End when the final attempt's
	// process ended.
	Queued, Started, End time.Time

	// Render is template-render cost; QueueWait the slot wait
	// (Started - Queued); Dispatch the slot-acquisition-to-process-
	// start overhead; WorkerDispatch the worker-side sub-segment of
	// Dispatch for remote jobs; ContainerStart the container runtime
	// startup; StageIn/StageOut data staging; Exec the payload
	// runtime; Collect the process-end-to-collector latency.
	Render, QueueWait, Dispatch, WorkerDispatch time.Duration
	ContainerStart, StageIn, Exec, StageOut     time.Duration
	Collect                                     time.Duration
}

// ExecStart returns when the final attempt began (dispatch complete),
// derived from End minus the attempt's in-slot phases.
func (s Span) ExecStart() time.Time {
	if s.End.IsZero() {
		return time.Time{}
	}
	return s.End.Add(-(s.ContainerStart + s.StageIn + s.Exec + s.StageOut))
}

// Overhead returns the launcher-attributed overhead of this job: the
// cost the run paid beyond the payload and its data staging.
// WorkerDispatch is excluded — it is a sub-segment of Dispatch, not an
// additional cost.
func (s Span) Overhead() time.Duration {
	return s.Render + s.Dispatch + s.ContainerStart + s.Collect
}

// Sink receives every span a Recorder assembles, in completion order.
// A sink keeps its first write error, drops later writes and returns
// that error from Close, which the Recorder calls once, after the last
// span.
type Sink interface {
	Write(Span) error
	Close() error
}

// Recorder assembles Spans from job-lifecycle events and hands each
// completed span to its sinks. It is safe for concurrent use and
// serializes sink calls; feed it from a telemetry bus subscription
// (async, lossy) rather than a synchronous tap, so a slow disk cannot
// stall dispatch.
type Recorder struct {
	mu      sync.Mutex
	sinks   []Sink
	pending map[int]*Span
	err     error
	closed  bool
}

// NewRecorder hands completed spans to sinks.
func NewRecorder(sinks ...Sink) *Recorder {
	return &Recorder{sinks: sinks, pending: map[int]*Span{}}
}

// Consume folds one lifecycle event into the recorder. The signature
// matches telemetry.Pump consumers.
func (r *Recorder) Consume(ev core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	switch ev.Type {
	case core.EventQueued:
		r.pending[ev.Seq] = &Span{
			Seq: ev.Seq, Command: ev.Command, Queued: ev.Time, Render: ev.Render,
			Incomplete: true,
		}
	case core.EventStarted:
		s := r.ensure(ev)
		s.Started = ev.Time
		s.Slot = ev.Slot
		if s.Attempt < ev.Attempt {
			s.Attempt = ev.Attempt
		}
		if !s.Queued.IsZero() && ev.Time.After(s.Queued) {
			s.QueueWait = ev.Time.Sub(s.Queued)
		}
	case core.EventRetried:
		s := r.ensure(ev)
		if s.Attempt < ev.Attempt {
			s.Attempt = ev.Attempt
		}
	case core.EventFinished, core.EventKilled:
		s := r.ensure(ev)
		s.Incomplete = false
		s.Killed = ev.Type == core.EventKilled
		s.OK = ev.OK
		s.Exit = ev.ExitCode
		s.Host = ev.Host
		if s.Attempt < ev.Attempt {
			s.Attempt = ev.Attempt
		}
		if s.Slot == 0 {
			s.Slot = ev.Slot
		}
		s.End = ev.End
		if s.End.IsZero() {
			s.End = ev.Time
		}
		s.Dispatch = ev.DispatchDelay
		s.WorkerDispatch = ev.WorkerDispatch
		s.ContainerStart = ev.ContainerStart
		s.StageIn = ev.StageIn
		s.StageOut = ev.StageOut
		// Duration covers the whole in-slot attempt (container + stage
		// + payload for simulated runs); Exec is what remains after the
		// attributed phases.
		if exec := ev.Duration - ev.ContainerStart - ev.StageIn - ev.StageOut; exec > 0 {
			s.Exec = exec
		}
		if d := ev.Time.Sub(s.End); d > 0 {
			s.Collect = d
		}
		delete(r.pending, ev.Seq)
		r.emit(*s)
	}
}

// ensure returns the pending span for ev's job, opening one when its
// earlier events were never seen (a lossy bus, a flight dump's ring).
func (r *Recorder) ensure(ev core.Event) *Span {
	s := r.pending[ev.Seq]
	if s == nil {
		s = &Span{Seq: ev.Seq, Incomplete: true}
		r.pending[ev.Seq] = s
	}
	if s.Command == "" {
		s.Command = ev.Command
	}
	return s
}

// emit hands one span to every sink; each keeps its own first error
// for Close to report.
func (r *Recorder) emit(s Span) {
	for _, k := range r.sinks {
		k.Write(s)
	}
}

// Close flushes spans still in flight (queued or started but never
// finished — an interrupted run) as Incomplete records, so a killed
// run's span file remains analyzable, then closes every sink. Further
// Consume calls are ignored.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	r.closed = true
	seqs := make([]int, 0, len(r.pending))
	for seq := range r.pending {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		r.emit(*r.pending[seq])
	}
	r.pending = nil
	for _, k := range r.sinks {
		if err := k.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// Spans is a Sink that keeps every span in memory, for in-process
// analysis (off for million-task runs).
type Spans []Span

// Write appends s.
func (l *Spans) Write(s Span) error { *l = append(*l, s); return nil }

// Close is a no-op.
func (l *Spans) Close() error { return nil }
