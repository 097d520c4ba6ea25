package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// sim_fig1 runs the simulator that reproduces the paper's figures: one
// weak-scaling point of Fig 1 on the serial kernel (Shards: 0), three
// times over, then a number of quick points whose wall times are the
// latency samples — a modeller iterating on a scenario waits for those. sim, cluster, slurm
// and storage do all the work; no launcher layer runs.
const (
	fig1NodesPer10s  = 6000 // nodes of the main point; 9000, the paper's largest, at a 15 s budget
	fig1PointRepeats = 3    // the main point is run this often; the median rate is reported
	fig1QuickNodes   = 100  // experiments' first quick node count
	fig1QuickPer10s  = 60
	fig1WarmNodes    = 300 // set-up's warm-up point
	fig1TasksPerNode = 128
	fig1ProbeEvents  = 5_000_000
)

// fig1Reference holds committed rows for seed 2024, keyed by node
// count: the oracle for "the model still computes what it computed".
// Regenerate with `bench -fig1-reference` after a deliberate model
// change.
//
//go:embed fig1_reference.json
var fig1ReferenceJSON []byte

const fig1ReferenceSeed = 2024

func loadFig1Reference() (map[int]experiments.Fig1Row, error) {
	var rows []experiments.Fig1Row
	if err := json.Unmarshal(fig1ReferenceJSON, &rows); err != nil {
		return nil, fmt.Errorf("fig1_reference.json: %w", err)
	}
	ref := make(map[int]experiments.Fig1Row, len(rows))
	for _, r := range rows {
		ref[r.Nodes] = r
	}
	return ref, nil
}

func fig1Point(seed uint64, nodes, shards int) experiments.Fig1Row {
	return experiments.Fig1Point(experiments.Options{Seed: seed, Shards: shards}, nodes)
}

// fig1RowSane checks what must hold for any seed.
func fig1RowSane(r experiments.Fig1Row, nodes int) bool {
	return r.Nodes == nodes && r.Tasks == nodes*fig1TasksPerNode &&
		0 < r.P25 && r.P25 <= r.Median && r.Median <= r.P75 && r.P75 <= r.P90 && r.P90 <= r.Max
}

type simEnv struct {
	ref map[int]experiments.Fig1Row
}

func setupSim(c *runCtx) (*simEnv, error) {
	ref, err := loadFig1Reference()
	if err != nil {
		return nil, err
	}
	// Warm-up: heap growth, pools, page faults of a first point.
	if r := fig1Point(c.seed, fig1WarmNodes, 0); !fig1RowSane(r, fig1WarmNodes) {
		return nil, fmt.Errorf("sim_fig1 warm-up row is not sane: %+v", r)
	}
	return &simEnv{ref: ref}, nil
}

// checkRow compares a row with the reference (seed 2024 and a committed
// node count) or, for other inputs, with the invariants alone.
func (e *simEnv) checkRow(o *outcome, name string, seed uint64, r experiments.Fig1Row, nodes int) bool {
	ok := fig1RowSane(r, nodes)
	detail := "invariants hold"
	if want, have := e.ref[nodes]; have && seed == fig1ReferenceSeed {
		ok = ok && r == want
		detail = fmt.Sprintf("row %+v, reference %+v", r, want)
	}
	o.checkf(name, ok, "%d nodes: %s", nodes, detail)
	return ok
}

func runSimFig1(c *runCtx) (*outcome, error) {
	o := newOutcome()
	nodes := c.count(fig1NodesPer10s)
	quick := c.count(fig1QuickPer10s)
	if c.traced {
		nodes = max(nodes/2, 1)
	}
	var env *simEnv
	var setupS float64
	var err error
	if c.traced {
		env, err = setupSim(c)
	} else {
		env, setupS, err = medianSetup(c, func() (*simEnv, error) { return setupSim(c) }, func(*simEnv) {})
	}
	if err != nil {
		return nil, err
	}
	tasks := nodes * fig1TasksPerNode

	if !c.traced {
		quickMS := make([]float64, 0, quick)
		quickSame, mainSame := true, true
		prog := newProgress(fig1PointRepeats*tasks, fig1PointRepeats)
		var row experiments.Fig1Row
		for i := 0; i < fig1PointRepeats; i++ {
			r := fig1Point(c.seed, nodes, 0)
			prog.advance((i + 1) * tasks)
			if i == 0 {
				row = r
			}
			mainSame = mainSame && r == row
		}
		var first experiments.Fig1Row
		for i := 0; i < quick; i++ {
			t0 := time.Now()
			r := fig1Point(c.seed, fig1QuickNodes, 0)
			quickMS = append(quickMS, float64(time.Since(t0))/1e6)
			if i == 0 {
				first = r
			}
			quickSame = quickSame && r == first
		}
		o.set("peak_rss_mb", peakRSSMB())
		o.set("setup_s", setupS)
		all := fig1PointRepeats*tasks + quick*fig1QuickNodes*fig1TasksPerNode
		prog.endToEnd(o)
		latencies(o, quickMS, 1)
		quickSame = quickSame && mainSame
		o.attempted = all
		if !env.checkRow(o, "sim_fig1/row", c.seed, row, nodes) {
			o.failed += fig1PointRepeats * tasks
		}
		o.checkf("sim_fig1/deterministic", quickSame, "%d main and %d quick points each gave the same row", fig1PointRepeats, quick)
		if !quickSame || !env.checkRow(o, "sim_fig1/quick-row", c.seed, first, fig1QuickNodes) {
			o.failed += quick * fig1QuickNodes * fig1TasksPerNode
		}
		return o, nil
	}

	// Traced: the serial point with allocation counters around it, the
	// same point on the sharded kernel, and the event-loop probe.
	tr := newTracer()
	var win window
	runtime.GC()
	win.begin()
	t0 := time.Now()
	row := fig1Point(c.seed, nodes, 0)
	t1 := time.Now()
	win.end()
	tr.add("sim.fig1_point serial", "", 1, t0, t1)
	win.process(o, tasks)
	o.set("sim.allocs_per_task", float64(win.after.mallocs-win.before.mallocs)/float64(tasks))
	o.set("sim.heap_bytes_per_task", float64(win.after.bytes-win.before.bytes)/float64(tasks))

	t2 := time.Now()
	sharded := fig1Point(c.seed, nodes, c.slots)
	t3 := time.Now()
	tr.add("sim.fig1_point sharded", "", 2, t2, t3)
	o.set("sim.tasks_per_s_sharded", float64(tasks)/t3.Sub(t2).Seconds())
	o.set("sim.sharded_speedup", t1.Sub(t0).Seconds()/t3.Sub(t2).Seconds())
	o.set("sim.event_ns", probeSimEvents(c.count(fig1ProbeEvents)))

	o.attempted = 2 * tasks
	if !env.checkRow(o, "sim_fig1/row", c.seed, row, nodes) {
		o.failed += tasks
	}
	o.checkf("sim_fig1/sharded-identical", sharded == row, "Shards=%d row equals the serial row", c.slots)
	if sharded != row {
		o.failed += tasks
	}
	o.notef("sim_fig1: %d nodes, %d tasks: serial %.3f s (%.0f tasks/s), %d shards %.3f s",
		nodes, tasks, t1.Sub(t0).Seconds(), float64(tasks)/t1.Sub(t0).Seconds(), c.slots, t3.Sub(t2).Seconds())
	if err := tr.write(c.outDir, "sim_fig1", c.seed, 2); err != nil {
		return nil, err
	}
	return o, nil
}

// fig1ReferenceMain prints the reference file: rows for the reference
// seed at every node count a run at the given budgets uses.
func fig1ReferenceMain(budgets []float64) int {
	seen := map[int]bool{}
	var rows []experiments.Fig1Row
	add := func(nodes int) {
		if !seen[nodes] {
			seen[nodes] = true
			rows = append(rows, fig1Point(fig1ReferenceSeed, nodes, 0))
		}
	}
	add(fig1QuickNodes)
	for _, s := range budgets {
		c := &runCtx{seconds: s}
		add(c.count(fig1NodesPer10s))
		add(max(c.count(fig1NodesPer10s)/2, 1))
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return 1
	}
	fmt.Println(string(data))
	return 0
}
