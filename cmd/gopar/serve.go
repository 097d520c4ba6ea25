package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/flight"
	"repro/internal/jobd"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// noopRunner completes every job instantly without spawning a process.
// It exists for load benchmarks of the service control plane (submit →
// schedule → dispatch → complete) where fork/exec cost and single-core
// execution backlog would drown the signal being measured.
type noopRunner struct{}

func (noopRunner) Run(ctx context.Context, job *core.Job) core.Result {
	now := time.Now()
	return core.Result{Job: *job, Start: now, End: now}
}

// runServe implements `gopar serve`: the persistent multi-tenant job
// daemon. It announces the bound address on stderr as
// "gopard-serve: listening on ADDR" (the line test harnesses and
// scripts parse), then serves until SIGINT/SIGTERM, draining gracefully.
func runServe(argv []string) int {
	fs := flag.NewFlagSet("gopar serve", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:0", "HTTP API listen address")
		dir         = fs.String("dir", "", "service state directory (required)")
		slots       = fs.Int("slots", 8, "global execution slot pool shared by all queues")
		walSyncMode = fs.String("wal-sync", "interval", "queue log durability, submit acks included: always|interval|never")
		defQuota    = fs.Int("default-quota", 0, "quota for auto-created queues (0 = slots)")
		defWeight   = fs.Int("default-weight", 1, "fair-share weight for auto-created queues")
		queues      = fs.String("queues", "", "pre-create queues: name=quota:weight[,name=quota:weight...]")
		runnerKind  = fs.String("runner", "exec", "job runner: exec (shell commands) | noop (load testing)")
		workersList = fs.String("workers", "", `dispatch jobs to gopard workers: "[slots/]host:port,..." (default: run jobs locally)`)
		deflateMin  = fs.Int("deflate-threshold", 0, "compress v3 wire payloads larger than this many bytes (0 = default 4096, negative = never)")
		metricsAddr = fs.String("metrics-addr", "", "extra Prometheus listener (metrics are always on the API listener at /metrics)")
		spans       = fs.Bool("spans", false, "record per-queue span timelines for `gopar report`")
		results     = fs.Bool("results", false, "save job output under <dir>/<queue>/results/")
		drainGrace  = fs.Duration("drain-grace", 10*time.Second, "graceful-shutdown window for running jobs")
		quiet       = fs.Bool("q", false, "suppress operational log lines")
		pprofOn     = fs.Bool("pprof", false, "also serve /debug/pprof on -metrics-addr (off by default)")
		flightBuf   = fs.Int("flight-buf", 8192, "flight-recorder event ring capacity (0 disables the recorder)")
		flightDir   = fs.String("flight-dump", "", "directory for flight dump files written on SIGQUIT or panic (default <dir>)")
		flightP99   = fs.Duration("flight-p99", 0, "flight watchdog: dispatch-delay p99 ceiling that raises an anomaly (0 = off)")
		debugAddr   = fs.String("debug-addr", "", `serve /debug/flight and /debug/pprof on this address (e.g. "127.0.0.1:0")`)
		debugToken  = fs.String("debug-token", "", "bearer token required by /debug/flight (empty = open; keep the listener on loopback)")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gopar serve -dir DIR [-listen ADDR] [-slots N] [flags]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "gopar serve:", err)
		return 2
	}
	if *dir == "" {
		fs.Usage()
		return 2
	}
	var syncPolicy wal.SyncPolicy
	switch *walSyncMode {
	case "always":
		syncPolicy = wal.SyncAlways
	case "interval":
		syncPolicy = wal.SyncInterval
	case "never":
		syncPolicy = wal.SyncNever
	default:
		return fail(fmt.Errorf("bad -wal-sync %q (want always|interval|never)", *walSyncMode))
	}
	cfg := jobd.Config{
		Dir:           *dir,
		Slots:         *slots,
		DefaultQuota:  *defQuota,
		DefaultWeight: *defWeight,
		WALSync:       syncPolicy,
		Spans:         *spans,
		Results:       *results,
		DrainGrace:    *drainGrace,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	switch *runnerKind {
	case "exec":
		// nil selects the default ExecRunner inside jobd.
	case "noop":
		cfg.Runner = noopRunner{}
	default:
		return fail(fmt.Errorf("bad -runner %q (want exec|noop)", *runnerKind))
	}

	// -workers turns the daemon into a distributed coordinator: jobs
	// dispatch over the v3 wire protocol to gopard workers instead of
	// fork/exec on this host. The pool is the runner; the service's
	// slot count follows the pool's aggregate capacity unless -slots
	// was given explicitly.
	var pool *dist.Pool
	if *workersList != "" {
		if *runnerKind == "noop" {
			return fail(fmt.Errorf("-workers and -runner noop are mutually exclusive"))
		}
		specs, perr := parseWorkers(*workersList)
		if perr != nil {
			return fail(perr)
		}
		p, derr := dist.Dial(specs, dist.WithDeflateThreshold(*deflateMin))
		if derr != nil {
			return fail(derr)
		}
		pool = p
		defer pool.Close()
		cfg.Runner = pool
		slotsSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "slots" {
				slotsSet = true
			}
		})
		if !slotsSet {
			cfg.Slots = pool.Slots()
		}
	}

	// Flight recorder: always on for the daemon (a long-lived process
	// is exactly what the black box exists for). Dumps land in the
	// state directory by default so they survive with the queues.
	var rec *flight.Recorder
	if *flightBuf > 0 {
		if *flightDir == "" {
			*flightDir = *dir
		}
		rec = flight.New(flight.Options{
			EventBuf: *flightBuf,
			Program:  "gopar-serve",
			Watchdog: flight.WatchdogConfig{DispatchP99: *flightP99},
			OnDiag: func(name, detail string) {
				fmt.Fprintf(os.Stderr, "gopard-serve: flight anomaly [%s]: %s\n", name, detail)
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
			fmt.Fprintf(os.Stderr, "gopard-serve: "+format+"\n", fargs...)
		}
		stopSig := flight.NotifySignal(rec, *flightDir, logf)
		defer stopSig()
		defer flight.DumpOnPanic(rec, *flightDir, logf)
		cfg.Flight = rec
		cfg.FlightDir = *flightDir
	} else if *debugAddr != "" {
		return fail(fmt.Errorf("-debug-addr requires the flight recorder (-flight-buf > 0)"))
	}

	srv, err := jobd.New(cfg)
	if err != nil {
		return fail(err)
	}
	if pool != nil {
		// Pool health, per-worker series, and wire traffic land on the
		// same registry the API listener serves at /metrics.
		pool.RegisterMetrics(srv.Registry())
	}

	var debugClose func() error
	if *debugAddr != "" {
		bound, closeFn, derr := flight.Serve(*debugAddr, rec, *debugToken)
		if derr != nil {
			srv.Close()
			return fail(derr)
		}
		debugClose = closeFn
		fmt.Fprintf(os.Stderr, "gopard-serve: debug on %s\n", bound)
	}

	for _, spec := range strings.Split(*queues, ",") {
		if spec == "" {
			continue
		}
		name, qcfg, perr := parseQueueSpec(spec)
		if perr != nil {
			srv.Close()
			return fail(perr)
		}
		if _, err := srv.ConfigureQueue(name, qcfg); err != nil {
			srv.Close()
			return fail(err)
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		srv.Close()
		return fail(err)
	}
	hs := &http.Server{Handler: srv.Handler()}

	var metricsClose func() error
	if *metricsAddr != "" {
		var srvOpts []telemetry.ServeOption
		if *pprofOn {
			srvOpts = append(srvOpts, telemetry.WithPprof())
		}
		bound, closeFn, merr := telemetry.Serve(*metricsAddr, srv.Registry(), srvOpts...)
		if merr != nil {
			ln.Close()
			srv.Close()
			return fail(merr)
		}
		metricsClose = closeFn
		fmt.Fprintf(os.Stderr, "gopard-serve: metrics on %s\n", bound)
	}

	// The announce line: harnesses block on this to learn the port.
	fmt.Fprintf(os.Stderr, "gopard-serve: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	exit := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "gopard-serve: shutting down")
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "gopar serve:", err)
		exit = 2
	}
	// Stop accepting API traffic first, then drain the job service.
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainGrace+5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "gopar serve: http shutdown:", err)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gopar serve: close:", err)
		exit = 2
	}
	if metricsClose != nil {
		metricsClose()
	}
	if debugClose != nil {
		debugClose()
	}
	fmt.Fprintln(os.Stderr, "gopard-serve: stopped")
	return exit
}

// parseQueueSpec parses "name=quota:weight" (weight optional).
func parseQueueSpec(spec string) (string, jobd.QueueConfig, error) {
	bad := func() (string, jobd.QueueConfig, error) {
		return "", jobd.QueueConfig{}, fmt.Errorf("bad -queues entry %q (want name=quota:weight)", spec)
	}
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return bad()
	}
	quotaStr, weightStr, hasWeight := strings.Cut(rest, ":")
	quota, err := strconv.Atoi(quotaStr)
	if err != nil || quota < 1 {
		return bad()
	}
	weight := 1
	if hasWeight {
		if weight, err = strconv.Atoi(weightStr); err != nil || weight < 1 {
			return bad()
		}
	}
	return name, jobd.QueueConfig{Quota: quota, Weight: weight}, nil
}
