package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/span"
	"repro/internal/wms"
)

// runReport implements `gopar report`: the offline analyzer that turns a
// span file (written by --spans), a joblog, or a simulated workload into
// the paper's overhead-attribution measurements.
func runReport(argv []string) int {
	fs := flag.NewFlagSet("gopar report", flag.ContinueOnError)
	var (
		spansPath   = fs.String("spans", "", "span JSONL file written by a run's --spans flag")
		joblogPath  = fs.String("joblog", "", "GNU-Parallel-format joblog (coarse fallback: exec time only)")
		simulate    = fs.Bool("sim", false, "analyze a simulated calibrated workload instead of files")
		simProfile  = fs.String("sim-profile", "frontier", "node profile for --sim: frontier|perlmutter-cpu|dtn")
		simSeed     = fs.Uint64("sim-seed", 1, "virtual-time RNG seed for --sim")
		simInst     = fs.Int("sim-instances", 1, "parallel instances for --sim")
		simJobs     = fs.Int("sim-jobs", 16, "slots per instance for --sim")
		simTasks    = fs.Int("sim-tasks", 2000, "tasks per instance for --sim")
		simDur      = fs.Duration("sim-task-dur", 0, "payload duration per task for --sim (0 = null tasks)")
		simRuntime  = fs.String("sim-runtime", "", "container runtime for --sim: shifter|podman-hpc")
		simStageIn  = fs.Duration("sim-stage-in", 0, "per-task stage-in duration for --sim")
		simStageOut = fs.Duration("sim-stage-out", 0, "per-task stage-out duration for --sim")
		jsonOut     = fs.String("json", "", `write the machine-readable report JSON here ("-" = stdout)`)
		traceOut    = fs.String("trace", "", "render the spans as a Chrome/Perfetto trace to this file")
		markdown    = fs.Bool("md", false, "emit markdown tables instead of ASCII (for docs generation)")
		withWMS     = fs.Bool("wms", false, "include the WMS-comparison table (measured per-task cost vs Swift/T model)")
		golden      = fs.String("golden", "", "compare key report fields against this golden JSON; non-zero exit on mismatch")
		tolerance   = fs.Float64("tolerance", 0.10, "relative tolerance for --golden numeric comparisons")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gopar report (--spans FILE | --joblog FILE | --sim [sim flags]) [--json FILE] [--trace FILE] [--golden FILE]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	spans, src, err := loadSpans(*spansPath, *joblogPath, *simulate, span.SimConfig{
		Profile: *simProfile, Seed: *simSeed, Instances: *simInst,
		Jobs: *simJobs, Tasks: *simTasks, TaskDur: *simDur,
		Runtime: *simRuntime, StageIn: *simStageIn, StageOut: *simStageOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopar report:", err)
		return 2
	}
	if len(spans) == 0 {
		fmt.Fprintln(os.Stderr, "gopar report: no spans to analyze")
		return 2
	}

	a := span.Analyze(spans)
	rep := reportDoc{Analysis: a, Source: src}
	if *withWMS {
		rep.WMS = wmsComparison(a)
	}

	if *traceOut != "" {
		if err := createFile(*traceOut, func(w io.Writer) error {
			tw := span.NewTraceWriter(w)
			for _, s := range spans {
				if err := tw.Write(s); err != nil {
					return err
				}
			}
			return tw.Close()
		}); err != nil {
			fmt.Fprintln(os.Stderr, "gopar report:", err)
			return 2
		}
	}
	if *jsonOut != "" {
		if err := writeReportJSON(*jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "gopar report:", err)
			return 2
		}
	}
	if *jsonOut != "-" {
		printReport(os.Stdout, rep, *markdown)
	}
	if *golden != "" {
		if !checkGolden(os.Stderr, rep, *golden, *tolerance) {
			return 1
		}
		fmt.Fprintln(os.Stderr, "gopar report: golden check passed")
	}
	return 0
}

// reportDoc is the machine-readable report: the analysis plus
// provenance and the optional WMS comparison.
type reportDoc struct {
	Source string `json:"source"`
	span.Analysis
	WMS []wmsRow `json:"wms_comparison,omitempty"`
}

// wmsRow compares this run's measured per-task launch cost against the
// calibrated Swift/T orchestration model at a given workflow size
// (paper §II: ~500 s of pure overhead at 50 k tasks).
type wmsRow struct {
	Tasks int `json:"tasks"`
	// SwiftTOverheadS is the centralized WMS's total orchestration
	// overhead for this many tasks.
	SwiftTOverheadS float64 `json:"swift_t_overhead_s"`
	// PerNodeOverheadS is this run's measured per-task launch cost ×
	// 128 (tasks per node at one task per Frontier core): the overhead
	// each node-local instance pays, independent of workflow size.
	PerNodeOverheadS float64 `json:"gopar_per_node_overhead_s"`
	Ratio            float64 `json:"ratio"`
}

// tasksPerNode is the paper's per-node task share for the WMS
// comparison: one task per Frontier schedulable core.
const tasksPerNode = 128

func wmsComparison(a span.Analysis) []wmsRow {
	model := wms.SwiftT()
	perNode := a.OverheadPerJobS * tasksPerNode
	var rows []wmsRow
	for _, n := range []int{10_000, 50_000, 100_000} {
		sw := model.Total(n).Seconds()
		r := wmsRow{Tasks: n, SwiftTOverheadS: sw, PerNodeOverheadS: perNode}
		if perNode > 0 {
			r.Ratio = sw / perNode
		}
		rows = append(rows, r)
	}
	return rows
}

// loadSpans resolves the input source: exactly one of --spans, --joblog
// or --sim.
func loadSpans(spansPath, joblogPath string, simulate bool, simCfg span.SimConfig) ([]span.Span, string, error) {
	n := 0
	for _, set := range []bool{spansPath != "", joblogPath != "", simulate} {
		if set {
			n++
		}
	}
	if n != 1 {
		return nil, "", fmt.Errorf("need exactly one of --spans, --joblog, --sim")
	}
	switch {
	case spansPath != "":
		f, err := os.Open(spansPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		spans, err := span.Parse(f)
		return spans, "spans:" + spansPath, err
	case joblogPath != "":
		f, err := os.Open(joblogPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		entries, err := core.ParseJoblog(f)
		if err != nil {
			return nil, "", err
		}
		return span.FromJoblog(entries), "joblog:" + joblogPath, nil
	default:
		spans, err := span.RunSim(simCfg, nil)
		src := fmt.Sprintf("sim:%s seed=%d instances=%d jobs=%d tasks=%d runtime=%q",
			simCfg.Profile, simCfg.Seed, simCfg.Instances, simCfg.Jobs, simCfg.Tasks, simCfg.Runtime)
		return spans, src, err
	}
}

// createFile creates path and fills it with write.
func createFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReportJSON(path string, rep reportDoc) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// printReport renders the human-readable report tables.
func printReport(w io.Writer, rep reportDoc, md bool) {
	a := rep.Analysis
	render := func(t *metrics.Table) {
		if md {
			fmt.Fprintln(w, t.Markdown())
		} else {
			fmt.Fprintln(w, t.String())
		}
	}

	sum := metrics.NewTable("Run summary ("+rep.Source+")",
		"jobs", "failed", "killed", "incomplete", "retries", "slots", "hosts", "makespan_s")
	sum.AddRow(a.Jobs, a.Failed, a.Killed, a.Incomplete, a.Retries, a.Slots, a.Hosts,
		fmt.Sprintf("%.3f", a.MakespanS))
	render(sum)

	dec := metrics.NewTable("Overhead decomposition (wall time = exec + staging + launcher overhead)",
		"component", "total_s", "share")
	total := a.ExecTotalS + a.StageTotalS + a.OverheadTotalS
	pct := func(v float64) string {
		if total <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*v/total)
	}
	dec.AddRow("exec", fmt.Sprintf("%.3f", a.ExecTotalS), pct(a.ExecTotalS))
	dec.AddRow("staging", fmt.Sprintf("%.3f", a.StageTotalS), pct(a.StageTotalS))
	dec.AddRow("launcher overhead", fmt.Sprintf("%.3f", a.OverheadTotalS), pct(a.OverheadTotalS))
	dec.AddNote("per-job launcher overhead %.3f ms (render + dispatch + container-start + collect)",
		a.OverheadPerJobS*1e3)
	if a.DispatchRate > 0 {
		dec.AddNote("dispatch: mean %.3f ms => %.0f procs/s per instance (paper: ~470)",
			a.DispatchMeanS*1e3, a.DispatchRate)
	}
	if a.ContainerPct > 0 {
		dec.AddNote("container start: mean %.3f ms = %.0f%% of launch overhead (paper Shifter: ~19%%)",
			a.ContainerMeanS*1e3, 100*a.ContainerPct)
	}
	render(dec)

	ph := metrics.NewTable("Per-phase latency digests (ms)",
		"phase", "count", "mean", "p50", "p90", "p99", "max")
	for _, p := range a.Phases {
		ms := func(v float64) string { return fmt.Sprintf("%.3f", v*1e3) }
		ph.AddRow(p.Phase, p.Count, ms(p.MeanS), ms(p.P50S), ms(p.P90S), ms(p.P99S), ms(p.MaxS))
	}
	render(ph)

	cp := a.CriticalPath
	cpt := metrics.NewTable("Critical path (slot-serialized chain ending at the last job)",
		"slot", "jobs", "exec_s", "overhead_s", "idle_s")
	cpt.AddRow(cp.Slot, cp.Jobs, fmt.Sprintf("%.3f", cp.ExecS),
		fmt.Sprintf("%.3f", cp.OverheadS), fmt.Sprintf("%.3f", cp.IdleS))
	if pathTotal := cp.ExecS + cp.OverheadS + cp.IdleS; pathTotal > 0 {
		cpt.AddNote("path accounts for %.1f%% of the makespan; %.1f%% of the path is launcher overhead",
			100*pathTotal/math.Max(a.MakespanS, pathTotal),
			100*cp.OverheadS/pathTotal)
	}
	render(cpt)

	prof := metrics.NewTable("Parallel profile (how many slots the run kept busy, and could use)",
		"effective_parallelism", "mean_launch_gap_ms", "recommended_jobs")
	prof.AddRow(fmt.Sprintf("%.2f", a.EffectiveParallelism),
		fmt.Sprintf("%.3f", a.MeanLaunchGapS*1e3), a.RecommendedJobs)
	dispatch, from := a.DispatchMeanS, "measured"
	if dispatch <= 0 {
		dispatch, from = cluster.DispatchCost.Seconds(), "GNU Parallel's, none measured"
	}
	prof.AddNote("recommended_jobs = min(jobs, exec p50 / dispatch + 1) at %.3f ms dispatch (%s)",
		dispatch*1e3, from)
	if len(a.Utilization) > 0 {
		var sum, peak float64
		for _, u := range a.Utilization {
			sum += u.Busy
			if u.Busy > peak {
				peak = u.Busy
			}
		}
		prof.AddNote("slot utilization: mean %.1f%%, peak %.1f%% over %d buckets of %.3fs",
			100*sum/float64(len(a.Utilization)), 100*peak,
			len(a.Utilization), a.Utilization[0].WidthS)
		prof.AddNote("utilization %s", sparkline(a.Utilization))
	}
	render(prof)

	if len(rep.WMS) > 0 {
		wt := metrics.NewTable("WMS comparison: orchestration overhead to launch N tasks",
			"tasks", "swift_t_s", "gopar_per_node_s", "ratio")
		for _, r := range rep.WMS {
			wt.AddRow(r.Tasks, fmt.Sprintf("%.1f", r.SwiftTOverheadS),
				fmt.Sprintf("%.3f", r.PerNodeOverheadS), fmt.Sprintf("%.0fx", r.Ratio))
		}
		wt.AddNote("per-node = measured per-task launch cost x %d tasks/node; Swift/T model calibrated to 500s @ 50k tasks (paper SII)", tasksPerNode)
		render(wt)
	}
}

// sparkline draws utilization buckets as one block character each.
func sparkline(pts []span.UtilPoint) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, len(pts))
	for i, p := range pts {
		out[i] = levels[int(math.Min(math.Max(p.Busy, 0), 1)*float64(len(levels)-1)+0.5)]
	}
	return string(out)
}

// checkGolden compares numeric fields of the golden JSON against the
// report within a relative tolerance. Count-like fields (jobs, failed,
// incomplete, killed) are exact. Reports every mismatch, returns false
// on any.
func checkGolden(w io.Writer, rep reportDoc, goldenPath string, tol float64) bool {
	gb, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintln(w, "gopar report: golden:", err)
		return false
	}
	var want map[string]any
	if err := json.Unmarshal(gb, &want); err != nil {
		fmt.Fprintln(w, "gopar report: golden:", err)
		return false
	}
	// Flatten the report through JSON so golden keys match wire names.
	rb, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(w, "gopar report: golden:", err)
		return false
	}
	var got map[string]any
	if err := json.Unmarshal(rb, &got); err != nil {
		fmt.Fprintln(w, "gopar report: golden:", err)
		return false
	}
	exact := map[string]bool{
		"jobs": true, "failed": true, "killed": true,
		"incomplete": true, "retries": true, "slots": true, "hosts": true,
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ok := true
	for _, k := range keys {
		wv, isNum := want[k].(float64)
		if !isNum {
			continue // structural keys (phases etc.) are not golden-checked
		}
		gv, present := got[k].(float64)
		if !present {
			fmt.Fprintf(w, "golden: %s missing from report\n", k)
			ok = false
			continue
		}
		var pass bool
		if exact[k] {
			pass = gv == wv
		} else if wv == 0 {
			pass = gv == 0
		} else {
			pass = math.Abs(gv-wv) <= tol*math.Abs(wv)
		}
		if !pass {
			fmt.Fprintf(w, "golden: %s = %g, want %g (tolerance %.0f%%)\n", k, gv, wv, tol*100)
			ok = false
		}
	}
	return ok
}
