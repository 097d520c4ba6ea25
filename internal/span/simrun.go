package span

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/sim"
)

// SimConfig describes a simulated workload for RunSim. The defaults
// (one Frontier-profile instance, null tasks) reproduce the paper's
// single-instance dispatch measurement.
type SimConfig struct {
	// Profile is the node profile: "frontier" (default),
	// "perlmutter-cpu" or "dtn".
	Profile string
	// Seed seeds the virtual-time RNG (deterministic reports).
	Seed uint64
	// Instances is how many parallel instances share the node (>=1).
	Instances int
	// Jobs is the slot count per instance (default 16).
	Jobs int
	// Tasks is the task count per instance (default 1000).
	Tasks int
	// TaskDur is the payload duration (±10 % jitter); 0 = null tasks.
	TaskDur time.Duration
	// Runtime selects a container runtime: "", "shifter", "podman-hpc".
	Runtime string
	// StageIn and StageOut add data-staging phases around each payload.
	StageIn, StageOut time.Duration
}

func (c *SimConfig) defaults() {
	if c.Profile == "" {
		c.Profile = "frontier"
	}
	if c.Instances <= 0 {
		c.Instances = 1
	}
	if c.Jobs <= 0 {
		c.Jobs = 16
	}
	if c.Tasks <= 0 {
		c.Tasks = 1000
	}
}

// RunSim executes the configured workload on a simulated node and
// returns the spans of every task. When w is non-nil the spans are
// also streamed to it in the wire format, exactly as a live run's
// --spans file would be.
func RunSim(cfg SimConfig, w io.Writer) ([]Span, error) {
	cfg.defaults()

	var prof cluster.Profile
	switch cfg.Profile {
	case "frontier":
		prof = cluster.Frontier()
	case "perlmutter-cpu":
		prof = cluster.PerlmutterCPU()
	case "dtn":
		prof = cluster.DTN()
	default:
		return nil, fmt.Errorf("span: unknown profile %q", cfg.Profile)
	}

	e := sim.NewEngine(cfg.Seed)
	c := cluster.New(e, prof, 1)
	node := c.Nodes[0]

	var rt *container.Runtime
	switch cfg.Runtime {
	case "":
	case "shifter":
		rt = container.Shifter(e)
	case "podman-hpc":
		rt = container.PodmanHPC(e)
	default:
		return nil, fmt.Errorf("span: unknown runtime %q", cfg.Runtime)
	}

	var spans Spans
	sinks := []Sink{&spans}
	if w != nil {
		sinks = append(sinks, NewJSONLWriter(w))
	}
	rec := NewRecorder(sinks...)
	taskRNG := e.RNG().Split("span/tasks")

	wg := sim.NewCounter(e, cfg.Instances)
	for i := 0; i < cfg.Instances; i++ {
		base := i * cfg.Tasks
		tasks := make([]cluster.Task, cfg.Tasks)
		for j := range tasks {
			t := cluster.Task{
				// Seq must be globally unique: the recorder joins events
				// across instances by sequence number.
				Seq:     base + j + 1,
				StageIn: cfg.StageIn, StageOut: cfg.StageOut,
			}
			if cfg.TaskDur > 0 {
				d := taskRNG.Jitter(cfg.TaskDur, 0.10)
				t.Payload = func(p *sim.Proc, _ cluster.TaskContext) error {
					p.Sleep(d)
					return nil
				}
			}
			tasks[j] = t
		}
		e.Spawn(fmt.Sprintf("inst%d", i), func(p *sim.Proc) {
			node.RunParallel(p, cluster.InstanceConfig{
				Jobs: cfg.Jobs, Runtime: rt, OnEvent: rec.Consume,
			}, tasks)
			wg.Done()
		})
	}
	e.Run()
	if err := rec.Close(); err != nil {
		return nil, err
	}
	return spans, nil
}
