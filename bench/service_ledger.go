package main

import (
	"time"

	"repro/internal/wal"
)

// serviceLedger turns the traced pass into the per-layer metrics: the
// paced phase's latency chain (what a lone job's milliseconds are made
// of) and the sat phase's per-job budget (what bounds throughput).
func serviceLedger(c *runCtx, o *outcome, k serviceKind, p, ref *servicePass) {
	env := p.env
	sat, paced := p.sat, p.paced
	satJobs := float64(sat.jobs)
	sat.win.process(o, sat.jobs)
	refRate := float64(ref.sat.jobs) / ref.sat.win.wall().Seconds()
	rate := satJobs / sat.win.wall().Seconds()
	o.set("span.trace_overhead_ratio", rate/refRate)
	o.set("loadgen.lag_ms_p99", pct(paced.lagMS, 0.99))
	o.set("loadgen.achieved_rate", paced.achievedHz)
	o.set("jobd.resume_ms", p.resumeMS)
	o.set("wal.replay_ms", p.replayMS)

	pacedFrom, pacedTo := paced.firstSeq, paced.firstSeq+paced.issued-1
	satFrom, satTo := sat.firstSeq, sat.firstSeq+sat.jobs-1

	// --- paced: the latency chain ---
	rtt := env.rtt.rttUS(paced.from, paced.to)
	o.set("jobd.submit_rtt_us_p50", median(rtt))
	o.set("jobd.submit_rtt_us_p99", tail(rtt))
	const s2d = "jobd_submit_to_dispatch_seconds"
	s2dP50 := histQuantile(p.marks[0].prom, p.marks[1].prom, s2d, 0.5) * 1e3
	o.set("jobd.submit_to_dispatch_ms_p50", s2dP50)
	o.set("jobd.submit_to_dispatch_ms_p99", histQuantile(p.marks[0].prom, p.marks[1].prom, s2d, 0.99)*1e3)

	var wireUS, ackMS, queueWaitUS []float64
	for seq := pacedFrom; seq <= pacedTo; seq++ {
		coord := env.coordRun.retAt[seq] - env.coordRun.callAt[seq]
		worker := env.workerRun.retAt[seq] - env.workerRun.callAt[seq]
		if env.coordRun.retAt[seq] == 0 || env.workerRun.retAt[seq] == 0 {
			continue
		}
		wireUS = append(wireUS, float64(coord-worker)/1e3)
		if at := paced.ackAt[seq-pacedFrom]; !at.IsZero() {
			ackMS = append(ackMS, float64(at.UnixNano()-env.workerRun.retAt[seq])/1e6)
		}
	}
	o.set("dist.wire_us_p50", median(wireUS))
	o.set("dist.wire_us_p99", tail(wireUS))
	o.set("jobd.done_to_ack_ms_p50", median(ackMS))

	spans, err := env.engineSpans()
	if err != nil {
		o.notef("%s: no engine spans: %v", k.name, err)
	} else {
		for _, s := range spans {
			if s.Seq >= pacedFrom && s.Seq <= pacedTo && !s.Incomplete {
				queueWaitUS = append(queueWaitUS, float64(s.QueueWait)/1e3)
			}
		}
	}
	o.set("core.queue_wait_us_p50", median(queueWaitUS))
	o.set("core.queue_wait_us_p99", tail(queueWaitUS))

	workerPacedUS := env.workerRun.durationsUS(pacedFrom, pacedTo)
	if k.exec {
		all := env.workerRun.durationsUS(pacedFrom, satTo)
		o.set("core.exec_run_us_mean", mean(all))
		o.set("core.exec_run_us_p99", tail(all))
	}
	measured := median(paced.latMS)
	chain := []ledgerRow{
		{"jobd.submit_rtt p50", median(rtt) / 1e3},
		{"jobd.submit_to_dispatch p50 (registry histogram)", s2dP50},
		{"dist.wire p50 (Pool.Run - worker Run)", median(wireUS) / 1e3},
		{"payload p50 (worker-side wrapped Runner)", median(workerPacedUS) / 1e3},
		{"jobd.done_to_ack p50 (worker return -> client sees terminal)", median(ackMS)},
	}
	var sum float64
	o.notef("%s paced latency chain: measured latency p50 %.3f ms (traced pass, %d samples)", k.name, measured, len(paced.latMS))
	for _, r := range chain {
		sum += r.ns
		o.notef("  %-62s %9.3f ms", r.name, r.ns)
	}
	// done_to_ack already spans the wire's return half, so the sum can
	// exceed the measured median a little; the gap is printed, not hidden.
	o.notef("  %-62s %9.3f ms  (gap to measured %+.3f ms)", "sum of layer medians", sum, measured-sum)

	// --- sat: the per-job budget ---
	budget := float64(sat.win.wall()) * float64(c.slots) / satJobs
	workerSatNS := 0.0
	for _, us := range env.workerRun.durationsUS(satFrom, satTo) {
		workerSatNS += us * 1e3
	}
	payloadNS := workerSatNS / satJobs
	o.set("core.slot_busy_ratio", payloadNS/budget)
	o.set("core.engine_self_ns_per_job", budget-payloadNS)

	satRTT := env.rtt.rttUS(sat.from, sat.to)
	var rttSumNS float64
	for _, us := range satRTT {
		rttSumNS += us * 1e3
	}
	o.set("jobd.submit_us_per_job_sat", rttSumNS/1e3/satJobs)
	lastAck := env.rtt.lastReturn(sat.from, sat.to)
	drainNS := float64(sat.to.Sub(lastAck)) * float64(c.slots) / satJobs

	fsyncs := p.marks[3].prom["gopar_wal_fsync_seconds_count"] - p.marks[2].prom["gopar_wal_fsync_seconds_count"]
	if fsyncs > 0 {
		o.set("wal.records_per_sync", 2*satJobs/fsyncs)
	}
	o.set("wal.syncs_per_kjob", fsyncs/satJobs*1e3)
	o.set("dist.bytes_per_job", float64(p.marks[3].wireBytes-p.marks[2].wireBytes)/satJobs)
	if frames := p.marks[3].wireOut - p.marks[2].wireOut; frames > 0 {
		o.set("dist.jobs_per_frame", satJobs/float64(frames))
	}
	if frames := p.marks[1].wireOut - p.marks[0].wireOut; frames > 0 {
		o.notef("dist: %.2f jobs per frame in the paced phase", float64(paced.issued)/float64(frames))
	}

	env.dirMetrics(o, p.total)

	cmds := make([]string, 0, min(sat.jobs, probeCap))
	for i := 0; i < cap(cmds); i++ {
		cmds = append(cmds, serviceCommand(c.seed, satFrom+i))
	}
	mqAppend, mqRead := probeTopic(c, cmds)
	o.set("mq.append_ns_per_msg", mqAppend)
	o.set("mq.read_ns_per_msg", mqRead)
	walNS := probeWALAppend(c, wal.SyncInterval, sat.jobs)
	o.set("wal.append_ns_per_record", walNS)

	// The clients' side of the phase: blocked in Submit, then waiting
	// for the engine to drain what they queued.
	o.notef("%s sat clients: %.0f ns/job blocked in Submit, %.0f ns/job waiting for the drain (of budget %.0f)",
		k.name, rttSumNS/satJobs, drainNS, budget)

	// Level 1: the engine slots' timeline, which tiles the budget. A
	// slot is inside Pool.Run (the wire round trip around the worker's
	// payload) or in the engine and jobd around it.
	var wireSatNS float64
	for seq := satFrom; seq <= satTo; seq++ {
		if env.coordRun.retAt[seq] != 0 && env.workerRun.retAt[seq] != 0 {
			wireSatNS += float64((env.coordRun.retAt[seq] - env.coordRun.callAt[seq]) - (env.workerRun.retAt[seq] - env.workerRun.callAt[seq]))
		}
	}
	wireNS := wireSatNS / satJobs
	dispatchNS, turnaroundNS := slotTimeline(spans, env.coordRun, c.slots, satFrom, satTo)
	printLedger(o, k.name+" sat slot timeline, budget 1e9 x slots / jobs_per_s", budget, []ledgerRow{
		{"payload (worker-side wrapped Runner)", payloadNS},
		{"dist.wire (Pool.Run - worker Run)", wireNS},
		{"core+jobd: slot took job -> Pool.Run called", dispatchNS},
		{"core+jobd: Pool.Run returned -> slot took next job", turnaroundNS},
	})
	// Level 2: the engine-side stages a slot waits on between jobs,
	// where their per-job cost can be measured from outside. What is
	// left of the turnaround is the engine's and jobd's own machinery
	// (channels, event bus, job table), which only tracing inside the
	// program can split further.
	o.set("core.unattributed_ns_per_job", printLedger(o, k.name+" sat turnaround", turnaroundNS, []ledgerRow{
		{"mq.read (probe)", mqRead},
		{"wal.append x2 (probe)", 2 * walNS},
	}))
	o.notef("%s sat, concurrent with the slots (client side): jobd.submit_rtt %.0f ns/job, of which mq.append %.0f + wal.append %.0f (probes)",
		k.name, rttSumNS/satJobs, mqAppend, walNS)
	o.notef("%s sat: %.0f jobs/s traced, %.0f untraced; %d submits of <= %d jobs, mean RTT %.0f us",
		k.name, rate, refRate, len(satRTT), k.batch, mean(satRTT))
}

// lastReturn is when the last submit that began in [from, to) returned.
func (t *timedTransport) lastReturn(from, to time.Time) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := from
	for _, s := range t.submits {
		if end := s.at.Add(s.dur); !s.at.Before(from) && s.at.Before(to) && end.After(last) {
			last = end
		}
	}
	return last
}
