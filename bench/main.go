// Command bench is the repository's one performance ledger: six
// workloads over the launcher, the job service and the DES kernel,
// end-to-end metrics a user would feel, and per-layer metrics from a
// separate traced run. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory defines them.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//	bench [--seed N] [--seconds S]                         every workload, untraced then traced
//	bench -check [--seed N]                                correctness oracle only, small scale
//	bench -runs K -o set.json                              K runs per workload, seeds N..N+K-1
//	bench -agree a.json b.json                             compare two sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// toResult selects the metrics the run's mode must report. An untraced
// run must have measured every end-to-end metric. A traced run reports
// every per-layer metric; one that is not on the workload's path reads
// 0 (README.md says which are).
func toResult(spec *benchSpec, o *outcome, traced bool) (*result, error) {
	r := &result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", m.Name)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return r, nil
}

// runOne performs one workload run in this process.
func runOne(spec *benchSpec, w *workload, seed uint64, seconds float64, traced bool, workRoot, outDir string) (*outcome, *result, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, nil, err
	}
	workDir, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(workDir)
	c := &runCtx{
		seed: seed, seconds: seconds, traced: traced,
		slots: runtime.NumCPU(), workDir: workDir, outDir: outDir,
	}
	o, err := w.run(c)
	if err != nil {
		return nil, nil, err
	}
	r, err := toResult(spec, o, traced)
	return o, r, err
}

func printHuman(spec *benchSpec, w *workload, o *outcome, traced bool) {
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	mode := "end-to-end (tracing off)"
	if traced {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("== %s: %s\n", w.name, mode)
	for _, name := range o.metricNames() {
		fmt.Printf("%-36s %16.6g %s\n", name, o.metrics[name], units[name])
	}
	for _, line := range o.report {
		fmt.Println(line)
	}
	printChecks(o)
	fmt.Printf("attempted %d, failed %d, fail_ratio %.6g\n", o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
}

// printChecks prints the oracle's verdicts and returns how many failed.
func printChecks(o *outcome) (failed int) {
	for _, ck := range o.checks {
		verdict := "ok"
		if !ck.ok {
			verdict = "FAILED"
			failed++
		}
		fmt.Printf("check %-34s %-6s %s\n", ck.name, verdict, ck.detail)
	}
	return failed
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result as the last line")
		seed         = flag.Uint64("seed", 2024, "input seed")
		seconds      = flag.Float64("seconds", 0, "run budget in seconds (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		checkOnly    = flag.Bool("check", false, "run every workload's correctness oracle at small scale")
		agree        = flag.Bool("agree", false, "compare two result sets: -agree a.json b.json")
		runs         = flag.Int("runs", 0, "make a result set: this many runs per workload")
		out          = flag.String("o", "", "result set file for -runs")
		fig1Ref      = flag.Bool("fig1-reference", false, "print fig1_reference.json for the budgets this benchmark runs at")
	)
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	workRoot := filepath.Join(".bench_build", "work")
	outDir := filepath.Join(spec.Paths[0], "out")

	switch {
	case *fig1Ref:
		return fig1ReferenceMain([]float64{float64(spec.RunSeconds), 10, checkSeconds, testSeconds})
	case *agree:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -agree a.json b.json")
			return 2
		}
		return agreeMain(spec, flag.Arg(0), flag.Arg(1))
	case *workloadName != "":
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		o, r, err := runOne(spec, w, *seed, *seconds, *trace != 0, workRoot, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printHuman(spec, w, o, *trace != 0)
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	case *checkOnly:
		return checkMain(spec, *seed, workRoot, outDir)
	case *runs > 0:
		if *out == "" {
			fmt.Fprintln(os.Stderr, "bench: -runs needs -o file.json")
			return 2
		}
		return runsMain(*runs, *seed, *seconds, *out)
	default:
		return allMain(*seed, *seconds)
	}
}

// checkSeconds is the scale of a -check run: enough jobs to exercise
// every oracle, small enough to finish in seconds.
const checkSeconds = 0.5

// testSeconds is the scale bench_test.go runs the workloads at: 1/100
// of a ten-second budget.
const testSeconds = 0.1

func checkMain(spec *benchSpec, seed uint64, workRoot, outDir string) int {
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		o, _, err := runOne(spec, w, seed, checkSeconds, false, workRoot, outDir)
		if err != nil {
			fmt.Printf("check %-34s FAILED %v\n", w.name, err)
			failed++
			continue
		}
		failed += printChecks(o)
		if o.failed > 0 {
			fmt.Printf("check %-34s FAILED %d of %d jobs failed\n", w.name, o.failed, o.attempted)
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("%d checks failed\n", failed)
		return 1
	}
	fmt.Println("all checks passed")
	return 0
}

// child runs one workload in its own process, so peak RSS and CPU are
// that workload's alone, and returns its parsed last line.
func child(w string, seed uint64, seconds float64, traced bool, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", t)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
	if echo {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w, err)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", w, err)
	}
	return &r, nil
}

// allMain is `go run ./bench`: every workload, each in a child
// process, untraced then traced; non-zero when any output is wrong.
func allMain(seed uint64, seconds float64) int {
	bad := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := child(w.name, seed, seconds, traced, true)
			switch {
			case err != nil:
				fmt.Fprintln(os.Stderr, "bench:", err)
				bad++
			case !r.Correct:
				fmt.Fprintf(os.Stderr, "bench: %s: outputs are not correct (%d of %d failed)\n", w.name, r.Failed, r.Attempted)
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// resultSet is the file -runs writes and -agree reads.
type resultSet struct {
	GoVersion string     `json:"go_version"`
	NumCPU    int        `json:"num_cpu"`
	Seconds   float64    `json:"seconds"`
	Claim     *string    `json:"claim"` // null: a result set claims nothing
	Runs      []setEntry `json:"runs"`
}

type setEntry struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

func runsMain(runs int, seed uint64, seconds float64, out string) int {
	set := resultSet{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: seconds}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			r, err := child(w.name, seed+uint64(i), seconds, false, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: outputs are not correct\n", w.name, seed+uint64(i))
				return 1
			}
			set.Runs = append(set.Runs, setEntry{Workload: w.name, Seed: seed + uint64(i), result: *r})
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", i+1, runs, w.name)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}
