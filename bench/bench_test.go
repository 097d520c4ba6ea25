package main

import (
	"math"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON holds BENCHMARK.json to the contract its consumers
// check before a single run, and to the workload list in this package.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why not 1..200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
}

// skipKnownRace skips the service workloads under the race detector:
// mq.Topic.Read formats len(t.offsets) into its out-of-range error after
// releasing the topic's mutex, which races with Append whenever the
// engine's long-poll and a submit overlap. The defect is in
// internal/mq at this commit, and this change may touch nothing
// outside the benchmark; the workloads still run without -race.
func skipKnownRace(t *testing.T, workload string) {
	if raceDetector && strings.HasPrefix(workload, "service_") {
		t.Skip("internal/mq.Topic.Read races with Append (see comment); not this package's to fix")
	}
}

func testCtx(t *testing.T, traced bool) *runCtx {
	return &runCtx{
		seed: 2024, seconds: testSeconds, traced: traced,
		slots: runtime.NumCPU(), workDir: t.TempDir(), outDir: t.TempDir(),
	}
}

// TestWorkloadsSmoke runs every workload at 1/100 scale so the
// benchmark cannot rot without `go test ./...` noticing: outputs
// correct, every end-to-end metric measured, finite and non-zero.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			skipKnownRace(t, w.name)
			o, err := w.run(testCtx(t, false))
			if err != nil {
				t.Fatal(err)
			}
			for _, ck := range o.checks {
				if !ck.ok {
					t.Errorf("check %s failed: %s", ck.name, ck.detail)
				}
			}
			if o.attempted < 1 || o.failed != 0 {
				t.Errorf("attempted %d, failed %d", o.attempted, o.failed)
			}
			r, err := toResult(spec, o, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range spec.EndToEnd {
				if v := r.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want finite and > 0", m.Name, v)
				}
			}
		})
	}
}

// TestTracedSmoke runs the traced pass of one workload per layer family
// and asserts that between them every per-layer metric of
// BENCHMARK.json is measured (a name nobody emits is a typo or rot),
// and that no run emits a name BENCHMARK.json does not know.
func TestTracedSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	known := map[string]bool{}
	for _, m := range spec.PerLayer {
		known[m.Name] = true
	}
	emitted := map[string]bool{}
	for _, name := range []string{"local_exec", "local_dispatch", "service_noop", "sim_fig1"} {
		w := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			skipKnownRace(t, name)
			o, err := w.run(testCtx(t, true))
			if err != nil {
				t.Fatal(err)
			}
			if !o.correct() {
				t.Errorf("outputs not correct: %+v", o.checks)
			}
			for n, v := range o.metrics {
				if !known[n] {
					t.Errorf("%s emits %q, which BENCHMARK.json does not list", name, n)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", name, n, v)
				}
				emitted[n] = true
			}
			if _, err := toResult(spec, o, true); err != nil {
				t.Error(err)
			}
		})
	}
	for _, m := range spec.PerLayer {
		if !emitted[m.Name] && !raceDetector {
			t.Errorf("per-layer metric %q is in BENCHMARK.json but no traced run measured it", m.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
