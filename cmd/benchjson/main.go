// Command benchjson is the perf-regression harness. It runs the
// microbenchmarks that guard the launcher's per-job cost (template
// render, engine dispatch, remote pool round-trip, the protocol v3
// wire codec and loopback data plane, the paper's Fig. 3 real-process
// rate) and the simulation kernel's throughput (events/s, procs/s,
// flow tasks/s, the sharded-kernel events benchmark, plus one
// full-scale Fig 1 point in serial and 4-shard modes), parses
// `go test -bench` output, and writes one machine-readable JSON report
// (BENCH_pr10.json in CI).
//
// Usage:
//
//	benchjson -out BENCH_pr10.json                # run + record
//	benchjson -benchtime 100x -out quick.json     # cheap smoke record
//	benchjson -stdin -out r.json < bench.txt      # parse a saved run
//	benchjson -out new.json -check old.json       # fail on regression
//
// The -check mode compares per benchmark against a previous report and
// exits non-zero on regression beyond -tolerance (default 25%, generous
// because shared CI runners are noisy): ns/op may not grow beyond
// tolerance, allocs/op may not grow past a ±1-alloc/5% jitter band
// (in-process counts are deterministic and the critical paths are also
// pinned by AllocsPerRun tests; fork/exec benches wobble), and
// throughput metrics (any ReportMetric unit ending in "/s") may not
// drop beyond tolerance — wiring perf into CI as a gate, not just a
// graph.
//
// -check additionally gates two budgets from within the new report
// itself (so they hold even when the baseline lacks the benchmark):
// the write-ahead log's dispatch overhead — BenchmarkDispatchWAL/
// sync=interval divided by .../sync=off must stay under budget (<5% on
// multi-core hosts; a relaxed bound on single-core hosts where the
// group-commit flusher serializes with dispatch, see docs/DURABILITY.md)
// — and the job service's submit→dispatch p99, which BenchmarkServeSubmit
// reports from the daemon's own histogram and which must stay under an
// absolute ceiling regardless of client count (see docs/SERVICE.md) —
// and the v3 wire data plane's budgets: the binary codec must stay
// allocation-free and the loopback dispatch rate above an absolute
// jobs/s floor (see DESIGN.md's protocol v3 section) — and the sharded
// DES kernel's budget: the 4-shard full-scale Fig 1 run must beat the
// serial kernel by the host-shape floor (3x on 6+ CPUs, 2.5x on 4-5)
// or, on smaller hosts, stay within a 1.25x overhead ceiling (see
// DESIGN.md's parallel-kernel section).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one parsed benchmark result. Ns/op, B/op and allocs/op get
// first-class fields; every other `value unit` pair (jobs/s, procs/s,
// alloc deltas reported via b.ReportMetric) lands in Metrics.
type Bench struct {
	Name     string             `json:"name"`
	Iters    int64              `json:"iters"`
	NsPerOp  float64            `json:"ns_per_op"`
	BytesOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsOp float64            `json:"allocs_per_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// Report is the harness output schema.
type Report struct {
	Generated string  `json:"generated"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	BenchTime string  `json:"benchtime,omitempty"`
	Benches   []Bench `json:"benchmarks"`
}

// defaultTargets are the hot-path benchmarks the harness guards: one
// per layer of the dispatch pipeline, plus the simulation kernel. A
// non-empty benchtime overrides the global -benchtime for that target —
// the full-scale Fig 1 point is a single 1.15M-task simulation, so it
// always runs exactly once.
var defaultTargets = []struct{ pkg, bench, benchtime string }{
	{"./internal/tmpl/", "BenchmarkRenderJob", ""},
	// "BenchmarkDispatch" is a regex prefix: it also runs
	// BenchmarkDispatchWAL, whose sync=interval/sync=off pair feeds the
	// WAL-overhead gate in -check mode.
	{"./internal/core/", "BenchmarkDispatch", ""},
	{"./internal/dist/", "BenchmarkPoolDispatch", ""},
	// The v3 wire data plane: pure codec cost (must stay 0 allocs/op)
	// and the end-to-end loopback dispatch rate. Pinned
	// iteration counts: the wireGuard alloc/floor gates need enough
	// iterations to amortize session setup, so a time-based CI smoke
	// (100x) must not starve them.
	{"./internal/dist/", "BenchmarkWireCodecV3", "100000x"},
	{"./internal/dist/", "BenchmarkWireLoopback", "20000x"},
	{"./", "BenchmarkFig3RealDispatch", ""},
	// BenchmarkShardedEvents runs the synthetic sharded-kernel workload
	// at shards=0 (serial oracle) and shards=4; its events/s metrics are
	// gated relatively by compare and the serial entry doubles as the
	// kernel's no-regression guard for the oracle path.
	{"./internal/sim/", "BenchmarkEngineEvents|BenchmarkSimProcs|BenchmarkFlowTasks|BenchmarkShardedEvents", ""},
	{"./internal/experiments/", "BenchmarkFig1FullScalePoint", "1x"},
	// The serial-vs-4-shard pair of the paper's largest point; one full
	// simulation per mode (1x), feeding the shardGuard gate in -check.
	{"./internal/experiments/", "BenchmarkFig1Sharded", "1x"},
	// The job-service control plane: submit rate and submit→dispatch p99
	// under concurrent HTTP clients against a live `gopar serve` daemon.
	// Client count defaults to 200 (CI smoke); the committed baseline's
	// clients=10000 entry is recorded with GOPAR_SERVE_BENCH_CLIENTS=10000,
	// so cross-report compare skips the mismatched names and the in-report
	// serviceGuard p99 ceiling does the gating. Pinned iteration count
	// (a time-based benchtime would rerun the daemon-spawn warmup every
	// sizing round, and the p99 gate needs 10k+ observations): 50000
	// submits is ~5 per client even at the 10k-client baseline.
	{"./cmd/gopar/", "BenchmarkServeSubmit", "50000x"},
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	var (
		out       = flag.String("out", "BENCH_pr10.json", "output JSON path (- for stdout)")
		benchtime = flag.String("benchtime", "", "passed to go test -benchtime (default: go's 1s)")
		useStdin  = flag.Bool("stdin", false, "parse `go test -bench` output from stdin instead of running")
		check     = flag.String("check", "", "baseline report to compare against; regressions fail")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression in -check mode")
	)
	flag.Parse()

	var raw strings.Builder
	if *useStdin {
		if _, err := io.Copy(&raw, os.Stdin); err != nil {
			fatal("reading stdin: %v", err)
		}
	} else {
		for _, t := range defaultTargets {
			args := []string{"test", "-run=NONE", "-bench=" + t.bench, "-benchmem"}
			bt := *benchtime
			if t.benchtime != "" {
				bt = t.benchtime
			}
			if bt != "" {
				args = append(args, "-benchtime="+bt)
			}
			args = append(args, t.pkg)
			cmd := exec.Command("go", args...)
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			if err != nil {
				fatal("go %s: %v", strings.Join(args, " "), err)
			}
			raw.Write(outBytes)
		}
	}

	rep := Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		BenchTime: *benchtime,
		Benches:   parse(raw.String()),
	}
	if len(rep.Benches) == 0 {
		fatal("no benchmark lines found")
	}
	sort.Slice(rep.Benches, func(i, j int) bool { return rep.Benches[i].Name < rep.Benches[j].Name })

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("encoding report: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal("writing %s: %v", *out, err)
	}

	if *check != "" {
		base, err := load(*check)
		if err != nil {
			fatal("loading baseline: %v", err)
		}
		msgs := compare(base, rep, *tolerance)
		msgs = append(msgs, walGuard(rep)...)
		msgs = append(msgs, serviceGuard(rep)...)
		msgs = append(msgs, wireGuard(rep)...)
		msgs = append(msgs, shardGuard(rep)...)
		if len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, "REGRESSION:", m)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within %.0f%% of baseline %s\n",
			len(rep.Benches), *tolerance*100, *check)
	}
}

// walGuard enforces the write-ahead log's dispatch-overhead budget from
// a single report: sync=interval over sync=off, both measured
// back-to-back in one process so they share the run's noise. The budget
// depends on the host shape. With two or more CPUs the group-commit
// flusher runs beside the dispatch pipeline and the hot path only pays
// two staged appends per job, so interval must stay within 5% of off.
// On one CPU every flusher cycle is stolen from dispatch — group commit
// serializes with the work it logs — and the honest bound is the
// documented 1.6x (see docs/DURABILITY.md for the measured breakdown).
func walGuard(rep Report) []string {
	find := func(sub string) (Bench, bool) {
		for _, b := range rep.Benches {
			// Names carry a -GOMAXPROCS suffix (e.g. .../sync=off-4).
			if strings.HasPrefix(b.Name, "BenchmarkDispatchWAL/"+sub) {
				return b, true
			}
		}
		return Bench{}, false
	}
	off, okOff := find("sync=off")
	ivl, okIvl := find("sync=interval")
	if !okOff || !okIvl || off.NsPerOp <= 0 {
		// The core benchmarks weren't part of this run (e.g. -stdin with
		// a partial capture); nothing to gate.
		return nil
	}
	if ivl.Iters < 100_000 || off.Iters < 100_000 {
		// Below ~100k jobs the log's fixed costs (open, first flush
		// tick, initial fsyncs) dominate the per-job tax the budget is
		// about; a ratio from a smoke run is noise, not a verdict.
		fmt.Fprintf(os.Stderr, "benchjson: wal overhead gate skipped (%d iters; needs 100000+ to amortize fixed costs)\n",
			ivl.Iters)
		return nil
	}
	ratio := ivl.NsPerOp / off.NsPerOp
	limit, shape := 1.05, "multi-core <5% budget"
	if rep.NumCPU < 2 {
		// Measured 1.3-1.5x on a 1-vCPU host at 200k-1M jobs; the bound
		// leaves headroom for shared-runner noise without letting a real
		// doubling through.
		limit, shape = 1.75, "single-core serialized bound"
	}
	if ratio > limit {
		return []string{fmt.Sprintf(
			"wal overhead: sync=interval %.0f ns/op is %.2fx sync=off %.0f ns/op (limit %.2fx, %s)",
			ivl.NsPerOp, ratio, off.NsPerOp, limit, shape)}
	}
	fmt.Fprintf(os.Stderr, "benchjson: wal overhead %.2fx sync=off (%s, limit %.2fx)\n",
		ratio, shape, limit)
	return nil
}

// serviceGuard enforces the job service's submit→dispatch latency
// budget from a single report: every BenchmarkServeSubmit entry's
// p99_submit_dispatch_ms (the daemon's own histogram, scraped after the
// timed burst) must stay under an absolute ceiling. An absolute bound —
// unlike compare's relative one — holds at any client count, so the CI
// smoke at clients=200 gates the same contract the committed
// clients=10000 baseline documents. The ceiling is generous (500ms vs
// measured values — 2.5ms at the CI shape of 200 clients, 500ms
// (bucket-quantized) at the committed 10k-client single-core baseline —
// because the p99 snaps to histogram bucket bounds (…0.25, 0.5, 1,
// 2.5s…) and shared runners stall; it exists to catch the pathological
// regressions — a scheduler convoy, an accidental fsync on the dispatch
// path — where p99 jumps past the 1s bound to 2.5s or beyond.
func serviceGuard(rep Report) []string {
	const limitMS = 1000
	var msgs []string
	for _, b := range rep.Benches {
		if !strings.HasPrefix(b.Name, "BenchmarkServeSubmit/") {
			continue
		}
		p99, ok := b.Metrics["p99_submit_dispatch_ms"]
		if !ok {
			continue // scrape failed; the submit-rate compare still gates
		}
		if b.Iters < 10_000 {
			// Too few jobs for a p99 to mean anything past warmup.
			fmt.Fprintf(os.Stderr, "benchjson: service p99 gate skipped for %s (%d iters; needs 10000+)\n",
				b.Name, b.Iters)
			continue
		}
		if p99 > limitMS {
			msgs = append(msgs, fmt.Sprintf(
				"service latency: %s p99 submit→dispatch %.1f ms exceeds %d ms ceiling",
				b.Name, p99, limitMS))
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: service p99 submit→dispatch %.1f ms (%s, limit %d ms)\n",
				p99, b.Name, limitMS)
		}
	}
	return msgs
}

// wireGuard enforces the protocol v3 data plane's budgets from a
// single report. Two independent bounds:
//
//   - BenchmarkWireCodecV3 (encode+decode of a full jobs/results frame
//     pair, no I/O) must report exactly 0 allocs/op. The codec is
//     deterministic and fully pooled, so any nonzero count is a leak of
//     the pooling discipline, not jitter — the same property
//     TestWireCodecV3ZeroAlloc pins with AllocsPerRun, re-checked here
//     so the committed perf report can't drift from the test.
//   - BenchmarkWireLoopback (real TCP loopback, one multiplexed
//     session, full dispatch round trip) must stay above an absolute
//     jobs/s floor. The floor is far below healthy numbers — 390k/s
//     measured on a 1-vCPU host, see EXPERIMENTS.md — because shared
//     runners stall; it exists to catch the pathological regressions
//     (batch coalescing broken, a flush per job) that cut throughput
//     by 3x or more, while compare gates the relative 25% against the
//     committed baseline.
func wireGuard(rep Report) []string {
	const floorJobsPerSec = 100_000
	var msgs []string
	for _, b := range rep.Benches {
		if strings.HasPrefix(b.Name, "BenchmarkWireCodecV3") {
			if b.Iters < 10_000 {
				fmt.Fprintf(os.Stderr, "benchjson: wire codec alloc gate skipped (%d iters; needs 10000+)\n", b.Iters)
				continue
			}
			if b.AllocsOp != 0 {
				msgs = append(msgs, fmt.Sprintf(
					"wire codec: %s reports %.0f allocs/op, want 0 (pooled codec must not allocate)",
					b.Name, b.AllocsOp))
			} else {
				fmt.Fprintf(os.Stderr, "benchjson: wire codec 0 allocs/op (%s)\n", b.Name)
			}
		}
		// Names carry a -GOMAXPROCS suffix (BenchmarkWireLoopback-4).
		if b.Name == "BenchmarkWireLoopback" || strings.HasPrefix(b.Name, "BenchmarkWireLoopback-") {
			rate, ok := b.Metrics["jobs/s"]
			if !ok {
				continue
			}
			if b.Iters < 10_000 {
				fmt.Fprintf(os.Stderr, "benchjson: wire loopback floor skipped (%d iters; needs 10000+ to amortize session setup)\n", b.Iters)
				continue
			}
			if rate < floorJobsPerSec {
				msgs = append(msgs, fmt.Sprintf(
					"wire loopback: %s %.0f jobs/s below %d floor",
					b.Name, rate, floorJobsPerSec))
			} else {
				fmt.Fprintf(os.Stderr, "benchjson: wire loopback %.0f jobs/s (%s, floor %d)\n",
					rate, b.Name, floorJobsPerSec)
			}
		}
	}
	return msgs
}

// shardGuard enforces the sharded DES kernel's wall-clock budget from a
// single report: BenchmarkFig1Sharded/mode=shards4 against mode=serial,
// one full 9,000-node Fig 1 simulation each (pinned -benchtime=1x),
// measured back-to-back in one process. The two modes produce
// bit-identical rows — the digest matrix test proves it — so the pair
// isolates pure kernel cost. The bound is host-shape-conditional, in
// the walGuard tradition:
//
//   - 6+ CPUs: four shards must deliver >=3x the serial wall clock.
//     The model partitions into 64 node groups with cross-group traffic
//     only at the final staging flush, so near-linear scaling to 4
//     shards is the healthy state; under 3x means the epoch barrier or
//     mailbox path got expensive.
//   - 4-5 CPUs: >=2.5x — the coordinator, GC, and OS share the shards'
//     cores, which taxes every barrier.
//   - Under 4 CPUs parallel speedup is unmeasurable, so the gate flips
//     to an overhead ceiling: shards4 may cost at most 1.25x serial.
//     Measured on a 1-vCPU host the 4-shard run is in fact ~1.1x
//     FASTER than serial (sixty-four small per-group event heaps beat
//     one 9,000-node heap; heap ops are O(log n)), so even single-core
//     CI catches a regression that makes windows or barriers costly.
func shardGuard(rep Report) []string {
	find := func(sub string) (Bench, bool) {
		for _, b := range rep.Benches {
			// Names carry a -GOMAXPROCS suffix (e.g. .../mode=serial-4).
			if strings.HasPrefix(b.Name, "BenchmarkFig1Sharded/"+sub) {
				return b, true
			}
		}
		return Bench{}, false
	}
	serial, okS := find("mode=serial")
	sharded, okP := find("mode=shards4")
	if !okS || !okP || serial.NsPerOp <= 0 || sharded.NsPerOp <= 0 {
		// The sharded pair wasn't part of this run (e.g. -stdin with a
		// partial capture); nothing to gate.
		return nil
	}
	speedup := serial.NsPerOp / sharded.NsPerOp
	switch {
	case rep.NumCPU >= 6:
		if speedup < 3.0 {
			return []string{fmt.Sprintf(
				"sharded kernel: 4-shard Fig 1 speedup %.2fx below 3x floor (serial %.2fs, shards4 %.2fs, %d CPUs)",
				speedup, serial.NsPerOp/1e9, sharded.NsPerOp/1e9, rep.NumCPU)}
		}
	case rep.NumCPU >= 4:
		if speedup < 2.5 {
			return []string{fmt.Sprintf(
				"sharded kernel: 4-shard Fig 1 speedup %.2fx below 2.5x floor (serial %.2fs, shards4 %.2fs, %d CPUs)",
				speedup, serial.NsPerOp/1e9, sharded.NsPerOp/1e9, rep.NumCPU)}
		}
	default:
		if sharded.NsPerOp > serial.NsPerOp*1.25 {
			return []string{fmt.Sprintf(
				"sharded kernel: shards4 %.2fs is %.2fx serial %.2fs (limit 1.25x, single-core overhead bound)",
				sharded.NsPerOp/1e9, sharded.NsPerOp/serial.NsPerOp, serial.NsPerOp/1e9)}
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: sharded kernel %.2fx vs serial on %d CPUs (serial %.2fs, shards4 %.2fs)\n",
		speedup, rep.NumCPU, serial.NsPerOp/1e9, sharded.NsPerOp/1e9)
	return nil
}

// parse extracts benchmark result lines from go test output.
func parse(s string) []Bench {
	var out []Bench
	for _, line := range strings.Split(s, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		b := Bench{Name: m[1], Iters: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesOp = v
			case "allocs/op":
				b.AllocsOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[fields[i+1]] = v
			}
		}
		out = append(out, b)
	}
	return out
}

func load(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(b, &r)
}

// compare flags benchmarks whose ns/op regressed beyond tol, whose
// allocs/op grew past the jitter band (+1 alloc or +5%, whichever is
// larger — in-process hot paths are deterministic and additionally
// pinned by AllocsPerRun tests, but fork/exec and short-benchtime runs
// wobble by an alloc or two), or whose throughput metrics — any
// ReportMetric with a unit ending in "/s" (events/s, procs/s, tasks/s,
// jobs/s) — dropped beyond tol. Benchmarks present in only one report
// are ignored: the harness gates known hot paths, it does not force
// the two runs to share a benchmark set.
func compare(base, cur Report, tol float64) []string {
	old := map[string]Bench{}
	for _, b := range base.Benches {
		old[b.Name] = b
	}
	var msgs []string
	for _, b := range cur.Benches {
		o, ok := old[b.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		if b.NsPerOp > o.NsPerOp*(1+tol) {
			msgs = append(msgs, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (+%.0f%%, tolerance %.0f%%)",
				b.Name, b.NsPerOp, o.NsPerOp, (b.NsPerOp/o.NsPerOp-1)*100, tol*100))
		}
		if b.AllocsOp > o.AllocsOp+1 && b.AllocsOp > o.AllocsOp*1.05 {
			msgs = append(msgs, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f",
				b.Name, b.AllocsOp, o.AllocsOp))
		}
		for unit, v := range b.Metrics {
			if !strings.HasSuffix(unit, "/s") {
				continue
			}
			ov, ok := o.Metrics[unit]
			if !ok || ov <= 0 {
				continue
			}
			if v < ov*(1-tol) {
				msgs = append(msgs, fmt.Sprintf("%s: %.0f %s vs baseline %.0f (-%.0f%%, tolerance %.0f%%)",
					b.Name, v, unit, ov, (1-v/ov)*100, tol*100))
			}
		}
	}
	return msgs
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
