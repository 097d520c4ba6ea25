package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/args"
	"repro/internal/core"
	"repro/internal/span"
)

// traceKeepJobs bounds how many jobs' spans a trace file holds. The
// ledger is computed from sums over every job; the file is for looking
// at individual jobs, and five spans for each of millions of no-op
// jobs would be hundreds of megabytes nobody opens.
const traceKeepJobs = 20000

// traceSpan is one record of bench/out/<workload>.trace.json. Spans of
// one job share Job (the engine seq, which the v3 frame carries to the
// worker); Parent names the span this one is nested in.
type traceSpan struct {
	Name    string `json:"name"`
	Job     int    `json:"job"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
}

// tracer collects spans in memory for the traced run and writes them
// out when it ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []traceSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name, parent string, job int, start, end time.Time) {
	if t == nil || job > traceKeepJobs {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, traceSpan{
		Name: name, Job: job, Parent: parent,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// addEngineSpans turns the engine's own per-job phase record (OnEvent →
// span.Span) into trace spans under one "job" parent each.
func (t *tracer) addEngineSpans(spans []span.Span) {
	for _, s := range spans {
		if s.Seq > traceKeepJobs || s.Incomplete {
			continue
		}
		execStart := s.ExecStart()
		collected := s.End.Add(s.Collect)
		first := s.Queued.Add(-s.Render)
		t.add("job", "", s.Seq, first, collected)
		t.add("tmpl.render", "job", s.Seq, first, s.Queued)
		t.add("core.queue-wait", "job", s.Seq, s.Queued, s.Started)
		t.add("core.dispatch", "job", s.Seq, s.Started, execStart)
		t.add("core.exec", "job", s.Seq, execStart, s.End)
		t.add("core.collect", "job", s.Seq, s.End, collected)
	}
}

// eventTable is the traced run's Spec.OnEvent sink. span.Recorder takes
// a mutex and a map lookup per event, which on a no-op payload costs
// more than the job; the table stores each event in per-seq slots that
// exactly one engine goroutine writes (render worker: queued; slot
// worker: started; collector: finished), so the hook needs no lock and
// the traced run stays close to the untraced one. After the run the
// table is read back as span.Spans for span.Analyze.
type eventTable struct {
	queued, started, finished, end []int64 // unix ns; 0 = not seen
	render, dispatch, duration     []int64 // ns
	slot                           []int32
	ok                             []bool
}

func newEventTable(n int) *eventTable {
	mk := func() []int64 { return make([]int64, n+1) }
	return &eventTable{
		queued: mk(), started: mk(), finished: mk(), end: mk(),
		render: mk(), dispatch: mk(), duration: mk(),
		slot: make([]int32, n+1), ok: make([]bool, n+1),
	}
}

func (t *eventTable) onEvent(ev core.Event) {
	if ev.Seq < 1 || ev.Seq >= len(t.queued) {
		return
	}
	switch ev.Type {
	case core.EventQueued:
		t.queued[ev.Seq] = ev.Time.UnixNano()
		t.render[ev.Seq] = int64(ev.Render)
	case core.EventStarted:
		t.started[ev.Seq] = ev.Time.UnixNano()
		t.slot[ev.Seq] = int32(ev.Slot)
	case core.EventFinished, core.EventKilled:
		t.finished[ev.Seq] = ev.Time.UnixNano()
		t.end[ev.Seq] = ev.End.UnixNano()
		t.dispatch[ev.Seq] = int64(ev.DispatchDelay)
		t.duration[ev.Seq] = int64(ev.Duration)
		t.ok[ev.Seq] = ev.OK
	}
}

// spans assembles the table the way span.Recorder would have.
func (t *eventTable) spans() []span.Span {
	out := make([]span.Span, 0, len(t.queued)-1)
	for seq := 1; seq < len(t.queued); seq++ {
		if t.finished[seq] == 0 {
			continue
		}
		s := span.Span{
			Seq: seq, Slot: int(t.slot[seq]), Attempt: 1, OK: t.ok[seq],
			Queued: time.Unix(0, t.queued[seq]), Started: time.Unix(0, t.started[seq]),
			End:    time.Unix(0, t.end[seq]),
			Render: time.Duration(t.render[seq]), Dispatch: time.Duration(t.dispatch[seq]),
			Exec: time.Duration(t.duration[seq]),
		}
		if d := t.started[seq] - t.queued[seq]; d > 0 {
			s.QueueWait = time.Duration(d)
		}
		if d := t.finished[seq] - t.end[seq]; d > 0 {
			s.Collect = time.Duration(d)
		}
		out = append(out, s)
	}
	return out
}

type traceFile struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Jobs      int         `json:"jobs"`
	KeptJobs  int         `json:"kept_jobs"`
	Truncated bool        `json:"truncated"`
	Spans     []traceSpan `json:"spans"`
}

func (t *tracer) write(outDir, workload string, seed uint64, jobs int) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Jobs: jobs,
		KeptJobs: min(jobs, traceKeepJobs), Truncated: jobs > traceKeepJobs,
		Spans: t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, workload+".trace.json"), data, 0o644)
}

// timedSource wraps an args.Source: it counts the time spent inside
// Next and, for the latency metric, remembers when every
// sampleEvery-th record was handed out.
type timedSource struct {
	src         args.Source
	tr          *tracer
	timeAll     bool // time every call (traced run), not only sampled ones
	sampleEvery int
	handedOut   []time.Time // index seq/sampleEvery
	seq         int
	total       time.Duration
}

func (s *timedSource) Next() ([]string, error) {
	seq := s.seq + 1
	sampled := seq%s.sampleEvery == 0
	if !s.timeAll && !sampled {
		rec, err := s.src.Next()
		if err == nil {
			s.seq = seq
		}
		return rec, err
	}
	t0 := time.Now()
	rec, err := s.src.Next()
	if err != nil {
		return rec, err
	}
	t1 := time.Now()
	s.seq = seq
	if s.timeAll {
		s.total += t1.Sub(t0)
		s.tr.add("args.next", "", seq, t0, t1)
	}
	if sampled && seq/s.sampleEvery < len(s.handedOut) {
		s.handedOut[seq/s.sampleEvery] = t1
	}
	return rec, nil
}

// timedRunner wraps a core.Runner at a layer boundary. It always sums
// the time spent inside Run; given a seq count it also keeps each job's
// call and return time by seq, which is how coordinator-side and
// worker-side observations of one job are joined afterwards.
type timedRunner struct {
	inner  core.Runner
	name   string
	parent string
	tr     *tracer

	total atomic.Int64 // ns inside Run

	// perSeq arrays are written once per seq by the goroutine that ran
	// it and read only after the run has drained.
	callAt, retAt []int64 // unix ns; nil unless per-seq times are kept
}

func newTimedRunner(inner core.Runner, name, parent string, tr *tracer, perSeq int) *timedRunner {
	r := &timedRunner{inner: inner, name: name, parent: parent, tr: tr}
	if perSeq > 0 {
		r.callAt = make([]int64, perSeq+1)
		r.retAt = make([]int64, perSeq+1)
	}
	return r
}

func (r *timedRunner) Run(ctx context.Context, job *core.Job) core.Result {
	seq := job.Seq // the engine recycles *job after Run returns
	t0 := time.Now()
	res := r.inner.Run(ctx, job)
	t1 := time.Now()
	d := t1.Sub(t0)
	r.total.Add(int64(d))
	if seq < len(r.callAt) {
		r.callAt[seq] = t0.UnixNano()
		r.retAt[seq] = t1.UnixNano()
	}
	r.tr.add(r.name, r.parent, seq, t0, t1)
	return res
}

// durationsUS returns the recorded per-seq durations of seqs in
// [from, to], in microseconds.
func (r *timedRunner) durationsUS(from, to int) []float64 {
	out := make([]float64, 0, to-from+1)
	for seq := from; seq <= to && seq < len(r.callAt); seq++ {
		if r.retAt[seq] > 0 {
			out = append(out, float64(r.retAt[seq]-r.callAt[seq])/1e3)
		}
	}
	return out
}

// timedTransport wraps the client's http.RoundTripper and keeps the
// round-trip time of every submit (POST) — HTTP, JSON and the durable
// accept, as the client pays for them.
type timedTransport struct {
	inner http.RoundTripper
	tr    *tracer

	mu      sync.Mutex
	submits []submitRTT
}

type submitRTT struct {
	at  time.Time
	dur time.Duration
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return t.inner.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	t1 := time.Now()
	t.mu.Lock()
	t.submits = append(t.submits, submitRTT{at: t0, dur: t1.Sub(t0)})
	n := len(t.submits)
	t.mu.Unlock()
	// A submit's seqs are not known until its body is decoded, so the
	// span is keyed by request number.
	t.tr.add("jobd.submit_rtt", "", n, t0, t1)
	return resp, err
}

// rttUS returns the submit round trips that began in [from, to), in
// microseconds.
func (t *timedTransport) rttUS(from, to time.Time) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.submits {
		if !s.at.Before(from) && s.at.Before(to) {
			out = append(out, float64(s.dur)/1e3)
		}
	}
	return out
}
