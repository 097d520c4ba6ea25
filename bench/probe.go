package main

import (
	"time"

	"repro/internal/mq"
	"repro/internal/sim"
	"repro/internal/tmpl"
	"repro/internal/wal"
)

// A probe calls one layer's public function in a loop on the
// workload's own generated inputs with nothing else running, and
// returns nanoseconds per call. Probes run after the timed passes.

// probeCap bounds a probe's iterations: a mean over a million calls is
// settled, and the traced run has a time budget too.
const probeCap = 1_000_000

// probeRender times Template.AppendRender over the first n records.
func probeRender(seed uint64, template string, n int) float64 {
	t, err := tmpl.Parse(template)
	if err != nil {
		return 0
	}
	n = min(n, probeCap)
	src := &recordSource{seed: seed, n: n}
	recs := make([][]string, 0, n)
	for {
		rec, err := src.Next()
		if err != nil {
			break
		}
		recs = append(recs, rec)
	}
	var buf []byte
	t0 := time.Now()
	for i, rec := range recs {
		buf, _ = t.AppendRender(buf[:0], tmpl.Context{Args: rec, Seq: i + 1})
	}
	return float64(time.Since(t0)) / float64(len(recs))
}

// probeWALAppend times AppendIntent+AppendCompletion on a fresh log at
// the given sync policy and returns nanoseconds per record (two per
// job). Zero when the log cannot be opened.
func probeWALAppend(c *runCtx, policy wal.SyncPolicy, n int) float64 {
	dir, err := c.tempDir("probe-wal-")
	if err != nil {
		return 0
	}
	log, _, err := wal.Open(dir, wal.Options{Sync: policy})
	if err != nil {
		return 0
	}
	defer log.Close()
	n = min(n, probeCap)
	t0 := time.Now()
	for seq := 1; seq <= n; seq++ {
		if log.AppendIntent(seq, uint64(seq)) != nil || log.AppendCompletion(seq, 0, time.Microsecond, ":") != nil {
			return 0
		}
	}
	return float64(time.Since(t0)) / float64(2*n)
}

// probeWALReplay times wal.Replay over a run's log directory, in
// milliseconds.
func probeWALReplay(dir string) (float64, *wal.State, error) {
	t0 := time.Now()
	st, err := wal.Replay(dir)
	return float64(time.Since(t0)) / 1e6, st, err
}

// probeTopic times Topic.Append then Topic.Read over the submitted
// command strings, returning nanoseconds per message for each.
func probeTopic(c *runCtx, commands []string) (appendNS, readNS float64) {
	dir, err := c.tempDir("probe-mq-")
	if err != nil {
		return 0, 0
	}
	t, err := mq.OpenTopic(dir, "probe")
	if err != nil {
		return 0, 0
	}
	defer t.Close()
	t0 := time.Now()
	for _, cmd := range commands {
		if _, err := t.Append([]byte(cmd)); err != nil {
			return 0, 0
		}
	}
	appendNS = float64(time.Since(t0)) / float64(len(commands))
	t0 = time.Now()
	for i := range commands {
		if _, err := t.Read(int64(i)); err != nil {
			return appendNS, 0
		}
	}
	return appendNS, float64(time.Since(t0)) / float64(len(commands))
}

// probeSimEvents times the DES kernel's schedule+dispatch cycle over n
// self-rescheduling events, in nanoseconds per event.
func probeSimEvents(n int) float64 {
	e := sim.NewEngine(1)
	left := n
	var tick func()
	tick = func() {
		left--
		if left > 0 {
			e.After(time.Microsecond, tick)
		}
	}
	// Sixty-four chains keep the heap at a realistic depth.
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i)*time.Nanosecond, tick)
	}
	t0 := time.Now()
	e.Run()
	return float64(time.Since(t0)) / float64(n)
}

// ledgerRow is one measured layer cost, in budget units per job.
type ledgerRow struct {
	name string
	ns   float64
}

// printLedger writes the per-layer table: each measured row with its
// share of the end-to-end budget, then the residual no measured layer
// explains. It returns the residual.
func printLedger(o *outcome, title string, budget float64, rows []ledgerRow) float64 {
	o.notef("%s: %.0f ns/job", title, budget)
	var sum float64
	for _, r := range rows {
		sum += r.ns
		o.notef("  %-52s %12.0f ns  %5.1f %%", r.name, r.ns, 100*r.ns/budget)
	}
	residual := budget - sum
	o.notef("  %-52s %12.0f ns  %5.1f %%", "unattributed (residual)", residual, 100*residual/budget)
	o.notef("  %-52s %12.0f ns  %5.1f %%", "attributed", sum, 100*sum/budget)
	return residual
}
