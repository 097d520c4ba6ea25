package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the first, second and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is what the driver that gates this benchmark uses, so
// a spread computed here is the spread computed there.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n < 2 {
		if n == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric's values on one workload.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// agreeMain compares set b against set a, one row per end-to-end metric
// and workload. Verdicts: "unresolved" when either set's interquartile
// spread, as a share of its median, is wider than the metric's bound
// (the sets cannot tell a change of that size from noise); "regressed"
// when b's median is worse than a's by more than the bound; else "ok".
// setup_s is judged on its medians alone, as the driver does. Exit
// status is non-zero unless every row is ok.
func agreeMain(spec *benchSpec, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err == nil {
		var b *resultSet
		if b, err = loadSet(pathB); err == nil {
			return agreeSets(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func agreeSets(spec *benchSpec, a, b *resultSet) int {
	names := map[string]bool{}
	for _, r := range append(append([]setEntry(nil), a.Runs...), b.Runs...) {
		names[r.Workload] = true
	}
	var wls []string
	for _, w := range workloads {
		if names[w.name] {
			wls = append(wls, w.name)
			delete(names, w.name)
		}
	}
	var extra []string
	for n := range names {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	wls = append(wls, extra...)

	fmt.Printf("%-16s %-16s %5s  %12s %12s %7s  %12s %12s %7s  %8s %6s  %s\n",
		"workload", "metric", "n", "a.median", "a.q1..q3", "spread", "b.median", "b.q1..q3", "spread", "b vs a", "bound", "verdict")
	bad := 0
	for _, w := range wls {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w, m.Name), b.values(w, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-16s %-16s missing from a set\n", w, m.Name)
				bad++
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("%-16s %-16s %2d/%-2d  %12.6g %12s %6.1f%%  %12.6g %12s %6.1f%%  %+7.1f%% %5.0f%%  %s\n",
				w, m.Name, len(va), len(vb),
				a2, fmt.Sprintf("%.4g..%.4g", a1, a3), 100*spreadA,
				b2, fmt.Sprintf("%.4g..%.4g", b1, b3), 100*spreadB,
				100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d rows not ok\n", bad)
		return 1
	}
	fmt.Println("every row ok")
	return 0
}
