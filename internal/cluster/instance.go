package cluster

import (
	"errors"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/sim"
)

// ErrNodeDown reports a task lost to a node crash: the node was down at
// launch, or crashed while the task was running.
var ErrNodeDown = errors.New("cluster: node down")

// Task is one simulated unit of work for an Instance.
type Task struct {
	// Seq is the 1-based sequence number.
	Seq int
	// Payload runs the task's work in virtual time. It may use every
	// node facility (NVMe, GPUs, Lustre via closure). A nil payload is
	// a no-op task (the stress-test null job).
	Payload func(p *sim.Proc, tc TaskContext) error
	// FlowPayload, when non-nil (and Payload nil), expresses the task's
	// work as a lightweight callback flow instead of a goroutine
	// process: the function appends the work's steps (sleeps, resource
	// holds, filesystem ops) to fl at dispatch time. Eligible tasks —
	// no Payload, no container runtime, no UseCores, no staging — then
	// run with no goroutine and no channel handoffs, which is what
	// makes million-task experiment loops cheap. Flow payloads model
	// infallible work; node crashes are still detected and reported as
	// ErrNodeDown. See sim.Flow for the execution model.
	FlowPayload func(fl *sim.Flow, tc TaskContext)
	// StageIn and StageOut, when positive, model data staging around
	// the payload (e.g. Lustre→NVMe copy-in, result copy-out). They
	// hold the task's slot but not launch capacity, and are reported
	// as distinct phases in lifecycle events.
	StageIn, StageOut time.Duration
}

// TaskContext tells a payload where it is running.
type TaskContext struct {
	Node *Node
	// Slot is the 1-based parallel slot ({%}).
	Slot int
	Seq  int
}

// TaskResult records one simulated task execution.
type TaskResult struct {
	Seq        int
	Slot       int
	Start, End sim.Time
	Err        error
}

// Duration returns the task's virtual runtime.
func (r TaskResult) Duration() time.Duration { return r.End - r.Start }

// InstanceConfig configures one simulated parallel instance.
type InstanceConfig struct {
	// Jobs is the slot count (-j). <=0 defaults to the node's core
	// count (GNU Parallel's default of one job per CPU thread).
	Jobs int
	// DispatchCost overrides the node profile's per-task dispatch cost
	// (0 = profile default). This is the knob the dispatch-cost
	// ablation sweeps.
	DispatchCost time.Duration
	// Runtime wraps every task in a container runtime (nil = bare
	// metal).
	Runtime *container.Runtime
	// UseCores, when true, additionally acquires one node core per
	// running task, so multiple instances on one node contend for CPU
	// threads realistically.
	UseCores bool
	// OnResult, when non-nil, receives each task result as it
	// completes (virtual-time order). When nil, results are discarded
	// unless Collect is set.
	OnResult func(TaskResult)
	// OnEvent, when non-nil, receives the same job-lifecycle events a
	// real engine publishes (core.Event), with virtual timestamps
	// mapped onto the Unix epoch — so telemetry built for live runs
	// (telemetry.Bus, RunMetrics, span.Recorder) observes
	// simulated instances through the identical interface.
	OnEvent func(core.Event)
	// Collect retains results in Report.Results (off for million-task
	// runs).
	Collect bool
}

// Report summarizes an Instance run.
type Report struct {
	Results             []TaskResult
	Launched, Succeeded int
	Failed              int
	FirstStart, LastEnd sim.Time
	// DispatchBusy is total virtual time the dispatcher spent launching
	// — the instance's orchestration overhead.
	DispatchBusy time.Duration
}

// Makespan is LastEnd - FirstStart.
func (r *Report) Makespan() time.Duration {
	if r.LastEnd < r.FirstStart {
		return 0
	}
	return r.LastEnd - r.FirstStart
}

// instRun is the shared state of one RunParallel invocation: the report
// being accumulated, the slot free-list, and the arena of pooled
// per-task flow states. At most Jobs flow tasks are ever in flight, so
// the free list caps at the slot count regardless of task count.
type instRun struct {
	n        *Node
	rep      *Report
	slots    *sim.Store[int]
	wg       *sim.Counter
	onResult func(TaskResult)
	onEvent  func(core.Event)
	collect  bool
	free     []*flowTask
}

// flowTask is the callback-state arena for one in-flight lightweight
// task: the fields the begin/finish steps need, plus the method-value
// callbacks bound once per pooled struct so launching a task allocates
// nothing in steady state.
type flowTask struct {
	run           *instRun
	seq, slot     int
	dispatchDelay time.Duration
	start         sim.Time
	epoch         int
	err           error
	beginFn       func()
	aliveFn       func() bool
	finishFn      func()
}

func (st *instRun) get() *flowTask {
	if n := len(st.free); n > 0 {
		ft := st.free[n-1]
		st.free[n-1] = nil
		st.free = st.free[:n-1]
		return ft
	}
	ft := &flowTask{run: st}
	ft.beginFn = ft.begin
	ft.aliveFn = ft.alive
	ft.finishFn = ft.finish
	return ft
}

// launch runs one eligible task as a flow. The program mirrors the
// goroutine task body step for step — same event scheduling pattern,
// same bookkeeping order — so switching a model from the process path
// to the flow path leaves seeded results bit-identical.
func (st *instRun) launch(task Task, slot int, dispatchDelay time.Duration) {
	ft := st.get()
	ft.seq, ft.slot, ft.dispatchDelay = task.Seq, slot, dispatchDelay
	fl := st.n.Eng.NewFlow()
	fl.Do(ft.beginFn)
	fl.Guard(ft.aliveFn)
	if task.FlowPayload != nil {
		task.FlowPayload(fl, TaskContext{Node: st.n, Slot: slot, Seq: task.Seq})
	}
	fl.Finally()
	fl.Do(ft.finishFn)
	fl.Start()
}

// begin is the flow counterpart of the task body's prologue: record the
// start time and crash epoch, and fail immediately when launched into a
// dead node.
func (ft *flowTask) begin() {
	n := ft.run.n
	ft.start = n.Eng.Now()
	ft.epoch = n.FailEpoch()
	ft.err = nil
	if !n.Alive() {
		ft.err = ErrNodeDown
	}
}

func (ft *flowTask) alive() bool { return ft.err == nil }

// finish is the flow counterpart of the task body's epilogue and
// deferred cleanup, in the same order: crash recheck, result
// bookkeeping, OnResult/Collect, the EventFinished emission, slot
// return, completion count, and recycling the arena entry.
func (ft *flowTask) finish() {
	st := ft.run
	n := st.n
	if ft.err == nil && (n.FailEpoch() != ft.epoch || !n.Alive()) {
		// The node crashed while the task was running: the work is
		// gone, whatever the payload computed.
		ft.err = ErrNodeDown
	}
	res := TaskResult{Seq: ft.seq, Slot: ft.slot, Start: ft.start, End: n.Eng.Now(), Err: ft.err}
	rep := st.rep
	if res.Err == nil {
		rep.Succeeded++
	} else {
		rep.Failed++
	}
	if res.Start < rep.FirstStart {
		rep.FirstStart = res.Start
	}
	if res.End > rep.LastEnd {
		rep.LastEnd = res.End
	}
	if st.onResult != nil {
		st.onResult(res)
	}
	if st.collect {
		rep.Results = append(rep.Results, res)
	}
	if st.onEvent != nil {
		st.onEvent(core.Event{Type: core.EventFinished, Seq: ft.seq,
			Slot: ft.slot, Attempt: 1, Time: simWall(res.End),
			OK: res.Err == nil, ExitCode: exitCodeFor(res.Err),
			Host: n.Hostname(), Duration: res.Duration(),
			DispatchDelay: ft.dispatchDelay,
			End:           simWall(res.End)})
	}
	st.slots.PutNow(ft.slot)
	st.wg.Done()
	st.free = append(st.free, ft)
}

// RunParallel simulates one GNU-Parallel-style instance executing tasks on
// node n, called from process p (the "driver" shell). It blocks p until
// every task completes, mirroring `parallel -jN cmd ::: inputs` in a
// script, and returns the report.
//
// Dispatch semantics match internal/core's engine: a fixed pool of Jobs
// slots refilled greedily; the dispatcher serially pays DispatchCost per
// launch (the measured ~2.1ms that bounds one instance at ~470 procs/s),
// while launch work node-wide is capped by the node's Launch capacity
// (which bounds many instances at ~6,400 procs/s, Fig 3).
//
// Tasks whose work is expressible as a straight-line flow — a nil or
// FlowPayload payload with no container runtime, core accounting, or
// staging — execute on the goroutine-free flow path; everything else
// runs as a full simulated process.
func (n *Node) RunParallel(p *sim.Proc, cfg InstanceConfig, tasks []Task) *Report {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = n.Profile.Cores
	}
	dispatchCost := cfg.DispatchCost
	if dispatchCost == 0 {
		dispatchCost = n.Profile.DispatchCost
	}

	e := n.Eng
	// Slot free-list: concurrent tasks always hold distinct slot
	// numbers, which is what makes {%}-based GPU isolation sound.
	slots := sim.NewStore[int](e, jobs)
	for s := 1; s <= jobs; s++ {
		slots.Prefill(s)
	}
	wg := sim.NewCounter(e, len(tasks))
	rep := &Report{FirstStart: sim.Forever}
	if cfg.Collect {
		// One up-front arena: collecting a million-task run should cost
		// one allocation, not a realloc-and-copy ladder.
		rep.Results = make([]TaskResult, 0, len(tasks))
	}
	st := &instRun{n: n, rep: rep, slots: slots, wg: wg,
		onResult: cfg.OnResult, onEvent: cfg.OnEvent, collect: cfg.Collect}
	flowEligible := cfg.Runtime == nil && !cfg.UseCores

	for i := range tasks {
		task := tasks[i]
		if task.Seq == 0 {
			task.Seq = i + 1
		}
		if cfg.OnEvent != nil {
			cfg.OnEvent(core.Event{Type: core.EventQueued, Seq: task.Seq, Time: simWall(p.Now())})
		}
		// Greedy refill: wait for a free slot, then pay the serial
		// dispatch cost under the node-wide launch capacity.
		slot, _ := slots.Get(p)
		dStart := p.Now()
		n.Launch.Acquire(p, 1)
		p.Sleep(n.RNG.Jitter(dispatchCost, 0.05))
		n.Launch.Release(1)
		dispatchDelay := time.Duration(p.Now() - dStart)
		rep.DispatchBusy += p.Now() - dStart
		rep.Launched++
		if cfg.OnEvent != nil {
			cfg.OnEvent(core.Event{Type: core.EventStarted, Seq: task.Seq, Slot: slot,
				Attempt: 1, Time: simWall(p.Now())})
		}

		if flowEligible && task.Payload == nil && task.StageIn == 0 && task.StageOut == 0 {
			st.launch(task, slot, dispatchDelay)
			continue
		}
		if task.FlowPayload != nil {
			// Falling through to the process path would silently skip
			// the flow payload's work; make the misconfiguration loud.
			panic("cluster: Task.FlowPayload requires a flow-eligible config (no Runtime, no UseCores) and no Payload/staging")
		}

		e.Spawn("task", func(cp *sim.Proc) {
			defer func() {
				slots.Put(cp, slot)
				wg.Done()
			}()
			res := TaskResult{Seq: task.Seq, Slot: slot, Start: cp.Now()}
			var containerDur, stageInDur, stageOutDur time.Duration
			defer func() {
				if cfg.OnEvent != nil {
					cfg.OnEvent(core.Event{Type: core.EventFinished, Seq: task.Seq,
						Slot: slot, Attempt: 1, Time: simWall(res.End),
						OK: res.Err == nil, ExitCode: exitCodeFor(res.Err),
						Host: n.Hostname(), Duration: res.Duration(),
						DispatchDelay:  dispatchDelay,
						End:            simWall(res.End),
						ContainerStart: containerDur,
						StageIn:        stageInDur, StageOut: stageOutDur})
				}
			}()
			epoch := n.FailEpoch()
			if !n.Alive() {
				// Launched into a dead node: the fork itself fails.
				res.End = cp.Now()
				res.Err = ErrNodeDown
				rep.Failed++
				if res.Start < rep.FirstStart {
					rep.FirstStart = res.Start
				}
				if res.End > rep.LastEnd {
					rep.LastEnd = res.End
				}
				if cfg.OnResult != nil {
					cfg.OnResult(res)
				}
				if cfg.Collect {
					rep.Results = append(rep.Results, res)
				}
				return
			}
			var err error
			if cfg.Runtime != nil {
				// Container startup consumes launch capacity
				// (CPU-bound namespace/image setup) and may
				// serialize or fail per the runtime model.
				cStart := cp.Now()
				if cfg.Runtime.StartupOverhead > 0 {
					n.Launch.Acquire(cp, 1)
					cp.Sleep(cfg.Runtime.StartupOverhead)
					n.Launch.Release(1)
				}
				err = cfg.Runtime.Launch(cp)
				containerDur = time.Duration(cp.Now() - cStart)
			}
			if err == nil && task.StageIn > 0 {
				sStart := cp.Now()
				cp.Sleep(task.StageIn)
				stageInDur = time.Duration(cp.Now() - sStart)
			}
			if err == nil && task.Payload != nil {
				if cfg.UseCores {
					n.Cores.Acquire(cp, 1)
				}
				err = task.Payload(cp, TaskContext{Node: n, Slot: slot, Seq: task.Seq})
				if cfg.UseCores {
					n.Cores.Release(1)
				}
			}
			if err == nil && task.StageOut > 0 {
				sStart := cp.Now()
				cp.Sleep(task.StageOut)
				stageOutDur = time.Duration(cp.Now() - sStart)
			}
			if err == nil && (n.FailEpoch() != epoch || !n.Alive()) {
				// The node crashed while the task was running: the
				// work is gone, whatever the payload computed.
				err = ErrNodeDown
			}
			res.End = cp.Now()
			res.Err = err
			if err == nil {
				rep.Succeeded++
			} else {
				rep.Failed++
			}
			if res.Start < rep.FirstStart {
				rep.FirstStart = res.Start
			}
			if res.End > rep.LastEnd {
				rep.LastEnd = res.End
			}
			if cfg.OnResult != nil {
				cfg.OnResult(res)
			}
			if cfg.Collect {
				rep.Results = append(rep.Results, res)
			}
		})
	}
	wg.Wait(p)
	if rep.FirstStart == sim.Forever {
		rep.FirstStart = 0
	}
	return rep
}

// simWall maps virtual time onto the wall clock for telemetry events:
// the simulation starts at the Unix epoch.
func simWall(t sim.Time) time.Time { return time.Unix(0, 0).UTC().Add(t) }

// exitCodeFor mirrors a simulated task error as a process exit status.
func exitCodeFor(err error) int {
	if err == nil {
		return 0
	}
	return 1
}

// NullTasks builds n no-op tasks (the stress-test payload: /bin/true).
func NullTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Seq: i + 1}
	}
	return tasks
}

// SleepTasks builds n tasks that each hold a slot for the given duration
// drawn per task by dur (e.g. a distribution closure). The tasks run on
// the lightweight flow path.
func SleepTasks(n int, dur func(i int) time.Duration) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		d := dur(i)
		tasks[i] = Task{
			Seq: i + 1,
			FlowPayload: func(fl *sim.Flow, tc TaskContext) {
				fl.Sleep(d)
			},
		}
	}
	return tasks
}
