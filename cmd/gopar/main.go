// Command gopar is a GNU-Parallel-style parallel process launcher built
// on the repro engine.
//
// Usage:
//
//	gopar [flags] command [:::  args...] [::::  argfile] [:::+ linked...]
//	... | gopar [flags] command
//
// Examples:
//
//	gopar -j 8 'gzip -9 {}' ::: *.log
//	gopar -j 128 ./payload.sh ::: $(cat inputs.txt)
//	find /data -type f | gopar -j 32 'rsync -R -Ha {} /dest/'
//	gopar -j 8 --gpu-env HIP 'celer-sim {}' ::: runs/*.inp.json
//	gopar --dry-run 'convert {} {.}.png' ::: a.jpg b.jpg
//
// The command template supports {}, {.}, {/}, {//}, {/.}, {#}, {%} and
// positional {n} forms. Multiple ::: groups combine as a cartesian
// product; :::+ zips with the previous group; :::: reads a file.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/args"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/flight"
	"repro/internal/gpu"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sem":
			os.Exit(runSem(os.Args[2:]))
		case "report":
			os.Exit(runReport(os.Args[2:]))
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		case "debug":
			os.Exit(runDebug(os.Args[2:]))
		}
	}
	os.Exit(run())
}

// runSem implements `gopar sem`: a cross-process counting semaphore in
// the spirit of GNU Parallel's sem command. Independent invocations
// sharing an --id throttle each other:
//
//	for f in *.big; do gopar sem --id convert -j 4 convert "$f" "$f.png"; done
func runSem(argv []string) int {
	fs := flag.NewFlagSet("gopar sem", flag.ContinueOnError)
	var (
		jobs = fs.Int("j", 1, "semaphore slots shared across processes")
		id   = fs.String("id", "default", "semaphore name")
		dir  = fs.String("semdir", "", "semaphore directory (default $HOME/.gopar/sem)")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gopar sem [-j N] [--id NAME] command args...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	cmdWords := fs.Args()
	if len(cmdWords) == 0 {
		fs.Usage()
		return 2
	}
	base := *dir
	if base == "" {
		home, err := os.UserHomeDir()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gopar sem:", err)
			return 2
		}
		base = home + "/.gopar/sem"
	}
	sem, err := core.NewFileSemaphore(base+"/"+*id, *jobs, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopar sem:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	slot, err := sem.Acquire(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopar sem:", err)
		return 2
	}
	defer sem.Release(slot)

	runner := &core.ExecRunner{}
	res := runner.Run(ctx, &core.Job{Seq: 1, Slot: slot + 1, Command: strings.Join(cmdWords, " ")})
	os.Stdout.Write(res.Stdout)
	os.Stderr.Write(res.Stderr)
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, "gopar sem:", res.Err)
		return 2
	}
	return res.ExitCode
}

func run() int {
	fs := flag.NewFlagSet("gopar", flag.ContinueOnError)
	var (
		jobs      = fs.Int("j", 8, "number of parallel job slots")
		keepOrder = fs.Bool("k", false, "output results in input order")
		dryRun    = fs.Bool("dry-run", false, "print commands without running them")
		tag       = fs.Bool("tag", false, "prefix output lines with the input value")
		retries   = fs.Int("retries", 1, "total attempts per job")
		backoff   = fs.String("retry-backoff", "", `exponential pause between retries: "base[,cap]" (e.g. 1s or 500ms,30s)`)
		timeout   = fs.Duration("timeout", 0, "per-job timeout (0 = none)")
		termGrace = fs.Duration("term-grace", 0, "SIGTERM-to-SIGKILL window when cancelling a job's process group (0 = SIGKILL at once)")
		delay     = fs.Duration("delay", 0, "pause between consecutive job starts")
		maxLoad   = fs.Float64("load", 0, "pause dispatch while 1-min load average >= this (0 = off)")
		haltSpec  = fs.String("halt", "", "halt policy: soon|now,fail|success=N or N% (e.g. now,fail=10%)")
		joblog    = fs.String("joblog", "", "append a GNU-Parallel-format job log to this file")
		resume    = fs.Bool("resume", false, "skip jobs already completed per --wal (or --joblog when no --wal)")
		walDir    = fs.String("wal", "", "record a crash-safe write-ahead run log in this directory")
		walSync   = fs.String("wal-sync", "interval", `write-ahead log durability: "always", "interval" or "never"`)
		gpuEnv    = fs.String("gpu-env", "", `set <VENDOR>_VISIBLE_DEVICES from the slot number ("HIP" or "CUDA")`)
		shell     = fs.Bool("shell", false, "always run commands through /bin/sh -c")
		discard   = fs.Bool("discard-output", false, "send job stdout/stderr to /dev/null (skips output capture entirely)")
		dir       = fs.String("dir", "", "working directory for jobs")
		quiet     = fs.Bool("quiet", false, "suppress the summary line")
		pipe      = fs.Bool("pipe", false, "split stdin into blocks fed to each job's stdin (--pipe mode)")
		block     = fs.Int("block", 1<<20, "target block size in bytes for --pipe")
		workers   = fs.String("S", "", `run jobs on gopard workers: "[slots/]host:port,..." (e.g. 8/n1:7547,8/n2:7547)`)
		deflateMin = fs.Int("deflate-threshold", 0, "compress v3 wire payloads larger than this many bytes (0 = default 4096, negative = never)")
		progress  = fs.Bool("progress", false, "show a live progress/ETA line on stderr")
		colsep    = fs.String("colsep", "", "split input records into columns on this separator ({1}, {2}, ...)")
		shuf      = fs.Bool("shuf", false, "process inputs in random order")
		shufSeed  = fs.Uint64("shuf-seed", 0, "seed for --shuf (0 = time-based)")
		results   = fs.String("results", "", "save per-job stdout/stderr/exitval under this directory")
		metrics   = fs.String("metrics-addr", "", `serve live Prometheus metrics on this address (e.g. ":9100"; ":0" picks a free port)`)
		events    = fs.String("events", "", "stream job-lifecycle events as JSON lines to this file")
		trace     = fs.String("trace", "", "stream a Chrome trace (chrome://tracing) to this file during the run")
		spans     = fs.String("spans", "", "stream per-job phase-timeline spans as JSON lines to this file (analyze with `gopar report`)")
		pprofOn   = fs.Bool("pprof", false, "also serve /debug/pprof on --metrics-addr (off by default)")
		flightBuf = fs.Int("flight-buf", 4096, "flight-recorder event ring capacity (0 disables the recorder)")
		flightDir = fs.String("flight-dump", "", "directory for flight dump files written on SIGQUIT or panic (default $TMPDIR)")
		flightP99 = fs.Duration("flight-p99", 0, "flight watchdog: dispatch-delay p99 ceiling that raises an anomaly (0 = off)")
		debugAddr  = fs.String("debug-addr", "", `serve /debug/flight and /debug/pprof on this address (e.g. "127.0.0.1:0")`)
		debugToken = fs.String("debug-token", "", "bearer token required by /debug/flight (empty = open; keep the listener on loopback)")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gopar [flags] command [::: args...] [:::: argfile]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return 2
	}

	cmdWords, src, err := splitInputs(rest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopar:", err)
		return 2
	}
	if *pipe {
		src = args.Blocks(os.Stdin, *block)
	}
	if *colsep != "" {
		// Accept the common escapes GNU Parallel's regex colsep allows.
		sep := strings.NewReplacer(`\t`, "\t", `\n`, "\n").Replace(*colsep)
		src = args.Colsep(src, sep)
	}
	if *shuf {
		seed := *shufSeed
		if seed == 0 {
			seed = uint64(time.Now().UnixNano())
		}
		src = args.Shuffle(src, seed)
	}
	command := strings.Join(cmdWords, " ")

	spec, err := core.NewSpec(command, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopar:", err)
		return 2
	}
	spec.KeepOrder = *keepOrder
	spec.Pipe = *pipe
	spec.DryRun = *dryRun
	spec.Tag = *tag
	spec.Retries = *retries
	spec.Timeout = *timeout
	spec.Delay = *delay
	spec.MaxLoad = *maxLoad
	spec.ResultsDir = *results
	spec.Out = os.Stdout
	spec.Errout = os.Stderr
	if *gpuEnv != "" {
		vendor := *gpuEnv
		spec.SlotEnv = func(slot int) []string {
			return []string{gpu.VisibleEnv(vendor, gpu.SlotDevice(slot))}
		}
	}
	var pp *core.ProgressPrinter
	if *progress {
		// Progress goes to stderr — stdout stays exclusively job output —
		// and only redraws in place when stderr is an interactive
		// terminal; on a pipe it degrades to rate-limited plain lines.
		pp = &core.ProgressPrinter{W: os.Stderr, TTY: stderrIsTTY()}
		spec.OnProgress = pp.Update
	}
	if spec.Halt, err = parseHalt(*haltSpec); err != nil {
		fmt.Fprintln(os.Stderr, "gopar:", err)
		return 2
	}
	if spec.RetryBackoff, err = parseBackoff(*backoff); err != nil {
		fmt.Fprintln(os.Stderr, "gopar:", err)
		return 2
	}

	if *joblog != "" {
		// Joblog-based resume is the fallback: when a WAL is configured it
		// is the authoritative record (it also knows about in-flight jobs
		// and input drift, which the joblog cannot).
		if *resume && *walDir == "" {
			if f, err := os.Open(*joblog); err == nil {
				entries, perr := core.ParseJoblog(f)
				f.Close()
				if perr != nil {
					fmt.Fprintln(os.Stderr, "gopar: reading joblog:", perr)
					return 2
				}
				spec.ResumeFrom = core.CompletedSeqs(entries)
			}
		}
		lf, err := os.OpenFile(*joblog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gopar:", err)
			return 2
		}
		// Sync before close so an orderly shutdown — including one driven
		// by SIGINT/SIGTERM cancelling the run — leaves the joblog durable
		// for the next --resume.
		defer func() {
			lf.Sync()
			lf.Close()
		}()
		if info, _ := lf.Stat(); info != nil && info.Size() == 0 {
			core.WriteJoblogHeader(lf)
		}
		spec.Joblog = lf
	}

	var runner core.Runner = &core.ExecRunner{Dir: *dir, ForceShell: *shell, TermGrace: *termGrace, DiscardOutput: *discard}
	var pool *dist.Pool
	if *workers != "" {
		specs, perr := parseWorkers(*workers)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "gopar:", perr)
			return 2
		}
		// Warn once, the moment the pool first loses capacity; the final
		// summary reports the closing health gauge.
		var degradedOnce sync.Once
		p, derr := dist.Dial(specs, dist.WithDeflateThreshold(*deflateMin),
			dist.WithHealthNotify(func(h dist.Health) {
				if h.Degraded() {
					degradedOnce.Do(func() {
						fmt.Fprintf(os.Stderr, "gopar: worker pool degraded: %d/%d slots live (%d redialing, %d lost)\n",
							h.Live, h.Total, h.Redialing, h.Lost)
					})
				}
			}))
		if derr != nil {
			fmt.Fprintln(os.Stderr, "gopar:", derr)
			return 2
		}
		pool = p
		defer pool.Close()
		runner = pool
		spec.Jobs = poolJobs(spec, pool)
	}

	// Flight recorder: the always-on black box. Fixed memory, zero
	// allocations per event; records every lifecycle event plus periodic
	// engine/pool/runtime snapshots, dumped on SIGQUIT, panic, anomaly,
	// or GET /debug/flight (--debug-addr). `gopar debug` renders dumps.
	var rec *flight.Recorder
	if *flightBuf > 0 {
		rec = flight.New(flight.Options{
			EventBuf: *flightBuf,
			Program:  "gopar",
			Watchdog: flight.WatchdogConfig{
				DispatchP99: *flightP99,
				DropStats:   []string{"pool.live"},
			},
			OnDiag: func(name, detail string) {
				fmt.Fprintf(os.Stderr, "gopar: flight anomaly [%s]: %s\n", name, detail)
			},
		})
		rec.AddSource("engine", rec.EngineStats)
		if pool != nil {
			p := pool
			rec.AddSource("pool", func(buf []flight.Stat) []flight.Stat {
				h := p.Health()
				return append(buf,
					flight.Stat{Name: "live", V: float64(h.Live)},
					flight.Stat{Name: "total", V: float64(h.Total)},
					flight.Stat{Name: "redialing", V: float64(h.Redialing)},
					flight.Stat{Name: "lost", V: float64(h.Lost)},
				)
			})
			rec.AddSource("wire", func(buf []flight.Stat) []flight.Stat {
				w := p.Wire()
				return append(buf,
					flight.Stat{Name: "bytes_sent", V: float64(w.BytesSent())},
					flight.Stat{Name: "bytes_received", V: float64(w.BytesReceived())},
					flight.Stat{Name: "frames_sent", V: float64(w.FramesSent())},
					flight.Stat{Name: "frames_received", V: float64(w.FramesReceived())},
					flight.Stat{Name: "deflate_ratio", V: w.DeflateRatio()},
				)
			})
		}
		rec.Start()
		defer rec.Stop()
		logf := func(format string, fargs ...any) {
			fmt.Fprintf(os.Stderr, "gopar: "+format+"\n", fargs...)
		}
		stopSig := flight.NotifySignal(rec, *flightDir, logf)
		defer stopSig()
		defer flight.DumpOnPanic(rec, *flightDir, logf)
		if *debugAddr != "" {
			bound, closeDebug, derr := flight.Serve(*debugAddr, rec, *debugToken)
			if derr != nil {
				fmt.Fprintln(os.Stderr, "gopar:", derr)
				return 2
			}
			fmt.Fprintf(os.Stderr, "gopar: serving debug endpoints on http://%s/debug/flight\n", bound)
			defer closeDebug()
		}
	} else if *debugAddr != "" {
		fmt.Fprintln(os.Stderr, "gopar: --debug-addr requires the flight recorder (--flight-buf > 0)")
		return 2
	}

	// Telemetry: a non-blocking bus feeds the in-process metrics registry
	// (synchronous tap) plus any streaming sinks (buffered subscription),
	// so a slow scrape or disk can never stall dispatch.
	var drainTelemetry func()
	var reg *telemetry.Registry // non-nil only when telemetry is on
	// syncClose fsyncs a streaming sink before closing it, so files like
	// the events/spans JSONL streams survive an interrupted shutdown with
	// everything the pump delivered on disk.
	syncClose := func(f *os.File) func() error {
		return func() error {
			f.Sync()
			return f.Close()
		}
	}
	if *metrics != "" || *events != "" || *trace != "" || *spans != "" {
		reg = telemetry.NewRegistry()
		bus := telemetry.NewBus()
		rm := telemetry.NewRunMetrics(reg, spec.Jobs)
		bus.Tap(rm.Observe)
		if rec != nil {
			bus.Tap(rec.RecordEvent)
		}
		reg.CounterFunc("gopar_events_dropped_total",
			"events dropped by saturated bus subscribers (events/spans/trace sinks)",
			func() float64 { return float64(bus.Dropped()) })
		telemetry.RegisterBuildInfo(reg, "gopar", time.Now())
		if pool != nil {
			pool.RegisterMetrics(reg)
		}
		var consumers []func(core.Event)
		var closers []func() error
		// Serve + announce before anything else in this block: scripts
		// that parse the "serving metrics on" line to discover a :0 port
		// must be able to scrape before the first job dispatches, and
		// nothing below may fail after the endpoint is live without the
		// announcement having been made.
		if *metrics != "" {
			var srvOpts []telemetry.ServeOption
			if *pprofOn {
				srvOpts = append(srvOpts, telemetry.WithPprof())
			}
			bound, closeFn, serr := telemetry.Serve(*metrics, reg, srvOpts...)
			if serr != nil {
				fmt.Fprintln(os.Stderr, "gopar:", serr)
				return 2
			}
			fmt.Fprintf(os.Stderr, "gopar: serving metrics on http://%s/metrics\n", bound)
			closers = append(closers, closeFn)
		}
		if *events != "" {
			f, cerr := os.Create(*events)
			if cerr != nil {
				fmt.Fprintln(os.Stderr, "gopar:", cerr)
				return 2
			}
			sink := telemetry.NewJSONLSink(f)
			consumers = append(consumers, sink.Consume)
			closers = append(closers, syncClose(f))
		}
		// --spans and --trace are two sinks of one span Recorder.
		var sinks []span.Sink
		var files []func() error
		for _, path := range []string{*spans, *trace} {
			if path == "" {
				continue
			}
			f, cerr := os.Create(path)
			if cerr != nil {
				fmt.Fprintln(os.Stderr, "gopar:", cerr)
				return 2
			}
			if path == *trace {
				sinks = append(sinks, span.NewTraceWriter(f))
			} else {
				sinks = append(sinks, span.NewJSONLWriter(f))
			}
			files = append(files, syncClose(f))
		}
		if len(sinks) > 0 {
			spanRec := span.NewRecorder(sinks...)
			consumers = append(consumers, spanRec.Consume)
			// spanRec.Close flushes in-flight spans as incomplete records
			// (open trace slices), so an interrupted (SIGINT/SIGTERM) run's
			// span file still parses and its trace still loads.
			closers = append(append(closers, spanRec.Close), files...)
		}
		var pumpDone sync.WaitGroup
		if len(consumers) > 0 {
			sub := bus.Subscribe(0)
			pumpDone.Add(1)
			go func() {
				defer pumpDone.Done()
				telemetry.Pump(sub, consumers...)
			}()
		}
		spec.OnEvent = bus.Publish
		drainTelemetry = func() {
			bus.Close()
			pumpDone.Wait()
			for _, c := range closers {
				c()
			}
		}
	}
	if rec != nil && spec.OnEvent == nil {
		// No telemetry bus in play: hook the recorder straight into the
		// engine's event callback (same zero-alloc budget).
		spec.OnEvent = rec.RecordEvent
	}

	// Write-ahead run log: an intent record is appended before each job
	// is handed to a slot and a completion record when its result is
	// collected, so a SIGKILL'd run can resume exactly where it died.
	var walLog *wal.Log
	if *walDir != "" {
		if *dryRun {
			fmt.Fprintln(os.Stderr, "gopar: --wal cannot be combined with --dry-run (it would record intents for jobs that never ran)")
			return 2
		}
		pol, perr := wal.ParseSyncPolicy(*walSync)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "gopar:", perr)
			return 2
		}
		opts := wal.Options{Sync: pol}
		var wm *telemetry.WalMetrics
		if reg != nil {
			wm = telemetry.NewWalMetrics(reg)
			opts.FsyncObserver = wm.ObserveFsync
		}
		l, st, werr := wal.Open(*walDir, opts)
		if werr != nil {
			fmt.Fprintln(os.Stderr, "gopar:", werr)
			return 2
		}
		walLog = l
		if wm != nil {
			wm.RecordReplay(st.Records, st.TornTails)
		}
		if prior := len(st.Completed) + len(st.InFlight); prior > 0 {
			if !*resume {
				walLog.Close()
				fmt.Fprintf(os.Stderr, "gopar: %s already holds a run (%d jobs logged); pass --resume to continue it, or point --wal at an empty directory\n",
					*walDir, prior)
				return 2
			}
			done := st.CompletedOK()
			fmt.Fprintf(os.Stderr, "gopar: wal resume: %d completed ok (skipped), %d failed and %d in-flight at crash (will re-run)",
				len(done), len(st.Completed)-len(done), len(st.InFlight))
			if st.TornTails > 0 {
				fmt.Fprintf(os.Stderr, "; %d torn segment tail(s) repaired", st.TornTails)
			}
			fmt.Fprintln(os.Stderr)
			spec.ResumeFrom = done
			spec.WALVerifier = st.Verifier()
		}
		spec.WAL = walLog
		if rec != nil {
			rec.AddSource("wal", func(buf []flight.Stat) []flight.Stat {
				ws := walLog.Stats()
				lagMS := -1.0
				if !ws.LastSync.IsZero() {
					lagMS = float64(time.Since(ws.LastSync)) / float64(time.Millisecond)
				}
				return append(buf,
					flight.Stat{Name: "appended", V: float64(ws.Appended)},
					flight.Stat{Name: "staged", V: float64(ws.Staged)},
					flight.Stat{Name: "syncs", V: float64(ws.Syncs)},
					flight.Stat{Name: "sync_lag_ms", V: lagMS},
					flight.Stat{Name: "seg_bytes", V: float64(ws.SegBytes)},
				)
			})
		}
	}

	eng, err := core.NewEngine(spec, runner)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopar:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	stats, _, err := eng.Run(ctx, src)
	if pp != nil {
		pp.Finish() // terminate an in-place progress line, if one was drawn
	}
	if drainTelemetry != nil {
		drainTelemetry()
	}
	// Close the WAL explicitly (not deferred) so a final-flush failure
	// can still flip the exit code: a run that "succeeded" but could not
	// make its completions durable must not look resumable-clean.
	if walLog != nil {
		if cerr := walLog.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal close: %w", cerr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopar:", err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "gopar: %d jobs, %d ok, %d failed, %d skipped in %v (%.0f jobs/s, avg dispatch %v)\n",
			stats.Total, stats.Succeeded, stats.Failed, stats.Skipped,
			time.Since(start).Round(time.Millisecond), stats.LaunchRate,
			stats.AvgDispatchDelay.Round(time.Microsecond))
		if pool != nil {
			h := pool.Health()
			fmt.Fprintf(os.Stderr, "gopar: pool health: %d/%d slots live, %d redialing, %d lost\n",
				h.Live, h.Total, h.Redialing, h.Lost)
		}
	}
	switch {
	case err != nil:
		return 2
	case stats.Failed > 0:
		if stats.Failed > 101 {
			return 101
		}
		return stats.Failed // GNU Parallel exit convention: 1-101 = failed jobs
	default:
		return 0
	}
}

// stderrIsTTY reports whether stderr is an interactive terminal, which
// decides between in-place progress redraw and plain line output.
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// poolJobs is the engine's -j over a worker pool: the pool's answer
// for -j (the default -j 8 counts as unset, i.e. the whole pool), or
// at most its slots when a job's slot number must name the worker slot
// that runs it ({%} in the template, --gpu-env).
func poolJobs(spec *core.Spec, pool *dist.Pool) int {
	limit := spec.Jobs
	if limit == 8 /* default */ {
		limit = pool.Slots()
	}
	if spec.SlotEnv != nil || (spec.Template != nil && spec.Template.HasSlotPlaceholder()) {
		return min(limit, pool.Slots())
	}
	return pool.Jobs(limit)
}

// parseWorkers parses the -S list: comma-separated [slots/]host:port
// entries, mirroring GNU Parallel's --sshlogin 8/host syntax.
func parseWorkers(s string) ([]dist.WorkerSpec, error) {
	var specs []dist.WorkerSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		spec := dist.WorkerSpec{Addr: entry}
		if i := strings.IndexByte(entry, '/'); i >= 0 {
			n, err := strconv.Atoi(entry[:i])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad worker slots in %q", entry)
			}
			spec.Slots = n
			spec.Addr = entry[i+1:]
		}
		if !strings.Contains(spec.Addr, ":") {
			return nil, fmt.Errorf("worker %q needs host:port", entry)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-S given but no workers parsed from %q", s)
	}
	return specs, nil
}

// splitInputs separates command words from input-source groups.
func splitInputs(rest []string) ([]string, args.Source, error) {
	sepAt := -1
	for i, w := range rest {
		if w == ":::" || w == "::::" || w == ":::+" {
			sepAt = i
			break
		}
	}
	if sepAt < 0 {
		// No ::: groups: read stdin lines.
		return rest, args.FromReader(os.Stdin), nil
	}
	cmdWords := rest[:sepAt]
	if len(cmdWords) == 0 {
		return nil, nil, fmt.Errorf("no command before %s", rest[sepAt])
	}

	type group struct {
		sep   string
		items []string
	}
	var groups []group
	for i := sepAt; i < len(rest); i++ {
		w := rest[i]
		if w == ":::" || w == "::::" || w == ":::+" {
			groups = append(groups, group{sep: w})
			continue
		}
		if len(groups) == 0 {
			return nil, nil, fmt.Errorf("argument %q outside any ::: group", w)
		}
		groups[len(groups)-1].items = append(groups[len(groups)-1].items, w)
	}

	var crossSources []args.Source
	for _, g := range groups {
		var s args.Source
		switch g.sep {
		case ":::":
			s = args.Literal(g.items...)
		case "::::":
			if len(g.items) != 1 {
				return nil, nil, fmt.Errorf(":::: takes exactly one file, got %d", len(g.items))
			}
			s = args.FromFile(g.items[0])
		case ":::+":
			if len(crossSources) == 0 {
				return nil, nil, fmt.Errorf(":::+ needs a preceding ::: group")
			}
			prev := crossSources[len(crossSources)-1]
			crossSources[len(crossSources)-1] = args.Zip(prev, args.Literal(g.items...))
			continue
		}
		crossSources = append(crossSources, s)
	}
	return cmdWords, args.Cross(crossSources...), nil
}

func parseHalt(s string) (core.HaltPolicy, error) {
	if s == "" {
		return core.HaltPolicy{}, nil
	}
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return core.HaltPolicy{}, fmt.Errorf("bad --halt %q (want e.g. soon,fail=1)", s)
	}
	var p core.HaltPolicy
	switch parts[0] {
	case "soon":
		p.When = core.HaltSoon
	case "now":
		p.When = core.HaltNow
	default:
		return p, fmt.Errorf("bad --halt timing %q", parts[0])
	}
	kv := strings.SplitN(parts[1], "=", 2)
	if len(kv) != 2 {
		return p, fmt.Errorf("bad --halt condition %q", parts[1])
	}
	if val, ok := strings.CutSuffix(kv[1], "%"); ok {
		// GNU Parallel's --halt now,fail=10% form: trigger on a
		// percentage of all jobs rather than an absolute count.
		pct, err := strconv.ParseFloat(val, 64)
		if err != nil || pct <= 0 || pct > 100 {
			return p, fmt.Errorf("bad --halt percentage %q (want 0 < n <= 100)", kv[1])
		}
		p.Percent = pct
	} else {
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 1 {
			return p, fmt.Errorf("bad --halt threshold %q", kv[1])
		}
		p.Threshold = n
	}
	switch kv[0] {
	case "fail":
	case "success":
		p.OnSuccess = true
	default:
		return p, fmt.Errorf("bad --halt condition %q", kv[0])
	}
	return p, nil
}

// parseBackoff parses --retry-backoff: "base" or "base,cap", both Go
// durations. The factor is the default (2x per attempt) and a 10%
// jitter spreads retry stampedes.
func parseBackoff(s string) (core.Backoff, error) {
	if s == "" {
		return core.Backoff{}, nil
	}
	parts := strings.SplitN(s, ",", 2)
	base, err := time.ParseDuration(strings.TrimSpace(parts[0]))
	if err != nil || base <= 0 {
		return core.Backoff{}, fmt.Errorf("bad --retry-backoff base %q (want e.g. 1s)", parts[0])
	}
	b := core.Backoff{Base: base, Jitter: 0.1}
	if len(parts) == 2 {
		cap, err := time.ParseDuration(strings.TrimSpace(parts[1]))
		if err != nil || cap < base {
			return core.Backoff{}, fmt.Errorf("bad --retry-backoff cap %q (want a duration >= base)", parts[1])
		}
		b.Cap = cap
	}
	return b, nil
}
