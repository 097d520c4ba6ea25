package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// service_restart measures the read side of the logs service_noop
// writes: set-up runs a no-op service to completion and stops it; the
// timed window opens a new jobd.Server over that directory, waits for
// its first stats answer that accounts for every job, and closes it
// again, a fixed number of times. A change that makes appends cheaper
// at replay's expense shows here.
const (
	restartJobsPer10s = 100_000 // jobs in the directory
	restartsPer10s    = 50      // open/close cycles in the timed window
)

var serviceRestartKind = serviceKind{name: "service_restart", batch: 64, warm: 5000}

func setupRestart(c *runCtx, k serviceKind, jobs int, tr *tracer) (*serviceEnv, error) {
	env, err := setupService(c, k, k.warm+jobs, tr)
	if err != nil {
		return nil, err
	}
	sat, err := env.runSat(jobs, k.batch, k.warm+1)
	if err == nil && sat.failed > 0 {
		err = fmt.Errorf("%d jobs failed while building the state directory", sat.failed)
	}
	if err == nil {
		err = env.stopService()
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func runServiceRestart(c *runCtx) (*outcome, error) {
	o := newOutcome()
	k := serviceRestartKind
	k.warm = c.warmup(k.warm)
	jobs := c.count(restartJobsPer10s)
	cycles := c.count(restartsPer10s)
	var tr *tracer
	if c.traced {
		tr = newTracer()
		jobs, cycles = max(jobs/2, 1), max(cycles/2, 1)
	}
	total := k.warm + jobs

	var env *serviceEnv
	var setupS float64
	var err error
	if c.traced {
		env, err = setupRestart(c, k, jobs, tr)
	} else {
		env, setupS, err = medianSetup(c, func() (*serviceEnv, error) { return setupRestart(c, k, jobs, nil) }, (*serviceEnv).close)
	}
	if err != nil {
		return nil, err
	}
	defer env.close()

	resumeMS := make([]float64, 0, cycles)
	var win window
	var restartErr error
	win.begin()
	prog := newProgress(cycles*total, cycles) // one share per open/close cycle
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		d, err := env.restart(total)
		if err != nil {
			restartErr = err
			break
		}
		tr.add("jobd.resume", "", i+1, t0, t0.Add(d))
		resumeMS = append(resumeMS, float64(d)/1e6)
		if err := env.stopService(); err != nil {
			restartErr = err
			break
		}
		prog.advance((i + 1) * total)
	}
	win.end()

	recovered := len(resumeMS) * total
	o.attempted = cycles * total
	o.failed = o.attempted - recovered
	o.checkf(k.name+"/resume", restartErr == nil, "%d of %d restarts accounted for all %d jobs as ok; err %v", len(resumeMS), cycles, total, restartErr)
	wrong := env.counter.notOnce(total)
	o.checkf(k.name+"/exactly-once", wrong == 0, "%d of %d seqs executed other than once across %d restarts", wrong, total, cycles)
	o.failed += wrong
	replayMS, st, err := probeWALReplay(filepath.Join(env.dir, serviceQueue, "wal"))
	okDone := 0
	if err == nil {
		okDone = len(st.CompletedOK())
	}
	o.checkf(k.name+"/wal-replay", err == nil && okDone == total, "replay: %d of %d completed ok; err %v", okDone, total, err)
	if recovered == 0 {
		return o, nil
	}

	if !c.traced {
		o.set("peak_rss_mb", peakRSSMB())
		o.set("setup_s", setupS)
		prog.endToEnd(o)
		latencies(o, resumeMS, 1)
		return o, nil
	}
	win.process(o, recovered)
	o.set("jobd.resume_ms", median(resumeMS))
	o.set("wal.replay_ms", replayMS)
	env.dirMetrics(o, total)
	cmds := make([]string, total)
	for i := range cmds {
		cmds[i] = serviceCommand(c.seed, i+1)
	}
	_, mqRead := probeTopic(c, cmds)
	o.set("mq.read_ns_per_msg", mqRead)
	// The rest of a resume is the topic's index scan and the job table's
	// rebuild, which have no public entry point to probe.
	printLedger(o, k.name+" resume, per job in the directory", median(resumeMS)*1e6/float64(total), []ledgerRow{
		{"wal.Replay (probe)", replayMS * 1e6 / float64(total)},
	})
	if err := tr.write(c.outDir, k.name, c.seed, cycles); err != nil {
		return nil, err
	}
	return o, nil
}
