package jobd

import (
	"repro/internal/telemetry"
)

// latencyBounds covers submit→dispatch latencies from sub-millisecond
// (idle queue, hot path) to tens of seconds (deep backlog).
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// queueMetrics is the per-queue jobd_* series, labeled by queue name.
// Registration is idempotent in the registry, but each queue's label
// set yields its own series.
type queueMetrics struct {
	submitted        *telemetry.Counter
	doneOK           *telemetry.Counter
	doneFailed       *telemetry.Counter
	doneCancelled    *telemetry.Counter
	submitToDispatch *telemetry.Histogram
	dispatch         *telemetry.Histogram
}

func newQueueMetrics(reg *telemetry.Registry, q *queue) *queueMetrics {
	l := telemetry.L("queue", q.name)
	m := &queueMetrics{
		submitted: reg.Counter("jobd_jobs_submitted_total",
			"jobs accepted (submit logged)", l),
		doneOK: reg.Counter("jobd_jobs_completed_total",
			"jobs reaching a terminal state", l, telemetry.L("outcome", "ok")),
		doneFailed: reg.Counter("jobd_jobs_completed_total",
			"jobs reaching a terminal state", l, telemetry.L("outcome", "failed")),
		doneCancelled: reg.Counter("jobd_jobs_completed_total",
			"jobs reaching a terminal state", l, telemetry.L("outcome", "cancelled")),
		submitToDispatch: reg.Histogram("jobd_submit_to_dispatch_seconds",
			"latency from submit ack to job process start", latencyBounds, l),
		dispatch: reg.Histogram("jobd_dispatch_latency_seconds",
			"engine dispatch delay (includes fair-share queue wait)", latencyBounds, l),
	}
	reg.GaugeFunc("jobd_queue_depth", "jobs accepted but not yet dispatched",
		func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(q.counts[statePending])
		}, l)
	reg.GaugeFunc("jobd_queue_running", "jobs currently executing",
		func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(q.counts[stateRunning])
		}, l)
	reg.CounterFunc("jobd_events_dropped_total",
		"events dropped by saturated bus subscribers (watch streams, span mirrors)",
		func() float64 { return float64(q.bus.Dropped()) }, l)
	return m
}

func (m *queueMetrics) completed(final jobStateCode) {
	switch final {
	case stateOK:
		m.doneOK.Inc()
	case stateFailed:
		m.doneFailed.Inc()
	case stateCancelled:
		m.doneCancelled.Inc()
	}
}
