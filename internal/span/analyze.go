package span

import (
	"sort"
	"time"

	"repro/internal/cluster"
)

// PhaseStat is the latency digest for one phase across a run. All
// values are seconds, matching the wire format, so the struct doubles
// as the machine-readable report row.
type PhaseStat struct {
	Phase  string  `json:"phase"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	MeanS  float64 `json:"mean_s"`
	P50S   float64 `json:"p50_s"`
	P90S   float64 `json:"p90_s"`
	P99S   float64 `json:"p99_s"`
	MaxS   float64 `json:"max_s"`
}

// UtilPoint is one bucket of the slot-utilization timeline: Busy is
// the fraction of slot capacity occupied during [OffsetS, OffsetS+WidthS).
type UtilPoint struct {
	OffsetS float64 `json:"offset_s"`
	WidthS  float64 `json:"width_s"`
	Busy    float64 `json:"busy"`
}

// PathSegment is one hop of the critical path: a job's attributed time
// (Kind "exec" or "overhead") or the idle gap before it (Kind "idle").
type PathSegment struct {
	Seq       int     `json:"seq,omitempty"`
	Kind      string  `json:"kind"`
	DurationS float64 `json:"duration_s"`
}

// CriticalPath is the longest slot-serialized chain ending at the last
// job to finish: what the makespan was actually spent on.
type CriticalPath struct {
	Slot      int     `json:"slot"`
	Jobs      int     `json:"jobs"`
	ExecS     float64 `json:"exec_s"`
	OverheadS float64 `json:"overhead_s"`
	IdleS     float64 `json:"idle_s"`
	// Segments is capped (oldest dropped) to keep reports bounded.
	Segments          []PathSegment `json:"segments,omitempty"`
	SegmentsTruncated bool          `json:"segments_truncated,omitempty"`
}

// Analysis is the machine-readable report `gopar report` emits: the
// overhead decomposition, phase digests, utilization timeline and
// critical path for one run.
type Analysis struct {
	Jobs       int `json:"jobs"`
	Failed     int `json:"failed"`
	Killed     int `json:"killed"`
	Incomplete int `json:"incomplete"`
	Retries    int `json:"retries"`
	Slots      int `json:"slots"`
	Hosts      int `json:"hosts"`

	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	MakespanS float64   `json:"makespan_s"`

	// Wall-time decomposition: every completed job's time is exec +
	// staging + attributed launcher overhead. OverheadPct is the
	// launcher's share of the total attributed time.
	ExecTotalS     float64 `json:"exec_total_s"`
	StageTotalS    float64 `json:"stage_total_s"`
	OverheadTotalS float64 `json:"overhead_total_s"`
	OverheadPct    float64 `json:"overhead_pct"`

	// OverheadPerJobS is the mean attributed launcher overhead per job
	// (render + dispatch + container start + collect) — the paper's
	// per-task launch cost, the number the WMS comparison is built on.
	OverheadPerJobS float64 `json:"overhead_per_job_s"`

	// DispatchMeanS and DispatchRate are the paper's headline dispatch
	// measurement: the mean slot-to-process-start cost and its inverse,
	// sustainable procs/s per serial dispatch stream (one instance).
	DispatchMeanS float64 `json:"dispatch_mean_s"`
	DispatchRate  float64 `json:"dispatch_rate_per_instance"`

	// ContainerMeanS and ContainerPct measure the container-runtime
	// startup tax: its mean and its share of per-task launch overhead
	// (dispatch + container start) — the paper's ~19 % Shifter figure.
	ContainerMeanS float64 `json:"container_mean_s,omitempty"`
	ContainerPct   float64 `json:"container_pct,omitempty"`

	// EffectiveParallelism is (exec + staging) / makespan: how many
	// slots the run kept busy on average. MeanLaunchGapS is the mean
	// gap between consecutive job starts (launch pacing).
	EffectiveParallelism float64 `json:"effective_parallelism"`
	MeanLaunchGapS       float64 `json:"mean_launch_gap_s"`
	// RecommendedJobs is the -j past which one dispatcher cannot refill
	// slots as fast as median-exec jobs free them: min(jobs,
	// ⌊exec p50 / dispatch⌋ + 1), at the measured mean dispatch cost or,
	// when the input carries none (a joblog), cluster.DispatchCost. It
	// is Slots when the exec p50 is zero.
	RecommendedJobs int `json:"recommended_jobs"`

	Phases       []PhaseStat  `json:"phases"`
	Utilization  []UtilPoint  `json:"utilization,omitempty"`
	CriticalPath CriticalPath `json:"critical_path"`
}

const (
	utilBuckets = 60
	maxPathSegs = 200
)

// Analyze decomposes a run's spans. Incomplete spans are counted but
// excluded from phase statistics.
func Analyze(spans []Span) Analysis {
	var a Analysis
	a.Jobs = len(spans)

	phaseVals := map[string][]float64{}
	slots := map[int]bool{}
	hosts := map[string]bool{}
	addPhase := func(name string, d time.Duration) {
		if d > 0 {
			phaseVals[name] = append(phaseVals[name], d.Seconds())
		}
	}

	var complete []Span
	var firstStart, lastStart time.Time // launch pacing
	for _, s := range spans {
		if s.Incomplete {
			a.Incomplete++
			continue
		}
		complete = append(complete, s)
		if !s.OK {
			a.Failed++
		}
		if s.Killed {
			a.Killed++
		}
		if s.Attempt > 1 {
			a.Retries += s.Attempt - 1
		}
		if s.Slot != 0 {
			slots[s.Slot] = true
		}
		if s.Host != "" && s.Host != ":" {
			hosts[s.Host] = true
		}
		start := s.Queued
		if start.IsZero() {
			start = s.Started
		}
		if !start.IsZero() && (a.Start.IsZero() || start.Before(a.Start)) {
			a.Start = start
		}
		if s.End.After(a.End) {
			a.End = s.End
		}
		if !s.Started.IsZero() && (firstStart.IsZero() || s.Started.Before(firstStart)) {
			firstStart = s.Started
		}
		if s.Started.After(lastStart) {
			lastStart = s.Started
		}
		addPhase(PhaseRender, s.Render)
		addPhase(PhaseQueueWait, s.QueueWait)
		addPhase(PhaseDispatch, s.Dispatch)
		addPhase(PhaseWorkerDispatch, s.WorkerDispatch)
		addPhase(PhaseContainerStart, s.ContainerStart)
		addPhase(PhaseStageIn, s.StageIn)
		addPhase(PhaseExec, s.Exec)
		addPhase(PhaseStageOut, s.StageOut)
		addPhase(PhaseCollect, s.Collect)

		a.ExecTotalS += s.Exec.Seconds()
		a.StageTotalS += (s.StageIn + s.StageOut).Seconds()
		a.OverheadTotalS += s.Overhead().Seconds()
	}
	a.Slots = len(slots)
	a.Hosts = len(hosts)
	if !a.Start.IsZero() && a.End.After(a.Start) {
		a.MakespanS = a.End.Sub(a.Start).Seconds()
	}
	if total := a.ExecTotalS + a.StageTotalS + a.OverheadTotalS; total > 0 {
		a.OverheadPct = a.OverheadTotalS / total
	}
	if n := len(complete); n > 0 {
		a.OverheadPerJobS = a.OverheadTotalS / float64(n)
	}

	// Phase digests, in pipeline order.
	for _, name := range []string{
		PhaseRender, PhaseQueueWait, PhaseDispatch, PhaseWorkerDispatch,
		PhaseContainerStart, PhaseStageIn, PhaseExec, PhaseStageOut,
		PhaseCollect,
	} {
		vals := phaseVals[name]
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		var total float64
		for _, v := range vals {
			total += v
		}
		a.Phases = append(a.Phases, PhaseStat{
			Phase:  name,
			Count:  len(vals),
			TotalS: total,
			MeanS:  total / float64(len(vals)),
			P50S:   percentile(vals, 0.50),
			P90S:   percentile(vals, 0.90),
			P99S:   percentile(vals, 0.99),
			MaxS:   vals[len(vals)-1],
		})
	}

	// Headline rates: a serial dispatch stream sustains 1/mean(dispatch)
	// process launches per second — the paper's procs/s/instance.
	a.DispatchMeanS = a.phase(PhaseDispatch).MeanS
	if a.DispatchMeanS > 0 {
		a.DispatchRate = 1 / a.DispatchMeanS
	}
	a.ContainerMeanS = a.phase(PhaseContainerStart).MeanS
	if a.ContainerMeanS > 0 {
		a.ContainerPct = a.ContainerMeanS / (a.DispatchMeanS + a.ContainerMeanS)
	}
	if a.MakespanS > 0 {
		a.EffectiveParallelism = (a.ExecTotalS + a.StageTotalS) / a.MakespanS
	}
	if n := len(complete); n > 1 {
		a.MeanLaunchGapS = lastStart.Sub(firstStart).Seconds() / float64(n-1)
	}
	a.RecommendedJobs = a.Slots
	if exec := a.phase(PhaseExec).P50S; exec > 0 {
		dispatch := a.DispatchMeanS
		if dispatch <= 0 {
			dispatch = cluster.DispatchCost.Seconds()
		}
		a.RecommendedJobs = min(a.Jobs, int(exec/dispatch)+1)
	}

	a.Utilization = utilization(complete, a)
	a.CriticalPath = criticalPath(complete)
	return a
}

// phase returns the digest for name (zero if the run never paid it).
func (a *Analysis) phase(name string) PhaseStat {
	for _, p := range a.Phases {
		if p.Phase == name {
			return p
		}
	}
	return PhaseStat{}
}

// percentile returns the nearest-rank percentile of sorted vals.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// utilization buckets slot occupancy (Started..End) over the run.
func utilization(spans []Span, a Analysis) []UtilPoint {
	if a.MakespanS <= 0 || a.Slots == 0 || len(spans) == 0 {
		return nil
	}
	width := a.MakespanS / utilBuckets
	busy := make([]float64, utilBuckets)
	for _, s := range spans {
		if s.Started.IsZero() || !s.End.After(s.Started) {
			continue
		}
		lo := s.Started.Sub(a.Start).Seconds()
		hi := s.End.Sub(a.Start).Seconds()
		for b := 0; b < utilBuckets; b++ {
			bLo, bHi := float64(b)*width, float64(b+1)*width
			ov := minF(hi, bHi) - maxF(lo, bLo)
			if ov > 0 {
				busy[b] += ov
			}
		}
	}
	pts := make([]UtilPoint, utilBuckets)
	capacity := width * float64(a.Slots)
	for b := range pts {
		pts[b] = UtilPoint{OffsetS: float64(b) * width, WidthS: width}
		if capacity > 0 {
			pts[b].Busy = busy[b] / capacity
		}
	}
	return pts
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// criticalPath walks back from the last job to finish along its slot's
// serialized chain of jobs, splitting the makespan tail into exec,
// launcher overhead and idle gaps.
func criticalPath(spans []Span) CriticalPath {
	var cp CriticalPath
	// Group by (host, slot): slot numbers repeat across hosts/instances.
	type key struct {
		host string
		slot int
	}
	bySlot := map[key][]Span{}
	var last *Span
	for i := range spans {
		s := &spans[i]
		if s.Started.IsZero() || s.End.IsZero() {
			continue
		}
		k := key{s.Host, s.Slot}
		bySlot[k] = append(bySlot[k], *s)
		if last == nil || s.End.After(last.End) {
			last = s
		}
	}
	if last == nil {
		return cp
	}
	chain := bySlot[key{last.Host, last.Slot}]
	sort.Slice(chain, func(i, j int) bool { return chain[i].Started.Before(chain[j].Started) })
	cp.Slot = last.Slot

	// Walk the chain backwards from the last job.
	idx := -1
	for i := range chain {
		if chain[i].Seq == last.Seq {
			idx = i
			break
		}
	}
	var segs []PathSegment
	prevStart := time.Time{}
	for i := idx; i >= 0; i-- {
		s := chain[i]
		if !prevStart.IsZero() {
			if gap := prevStart.Sub(s.End); gap > 0 {
				cp.IdleS += gap.Seconds()
				segs = append(segs, PathSegment{Kind: "idle", DurationS: gap.Seconds()})
			}
		}
		exec := (s.Exec + s.StageIn + s.StageOut).Seconds()
		over := s.Overhead().Seconds()
		cp.Jobs++
		cp.ExecS += exec
		cp.OverheadS += over
		segs = append(segs,
			PathSegment{Seq: s.Seq, Kind: "exec", DurationS: exec},
			PathSegment{Seq: s.Seq, Kind: "overhead", DurationS: over})
		prevStart = s.Started
	}
	// segs were built newest-first; reverse into run order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	if len(segs) > maxPathSegs {
		segs = segs[len(segs)-maxPathSegs:]
		cp.SegmentsTruncated = true
	}
	cp.Segments = segs
	return cp
}
