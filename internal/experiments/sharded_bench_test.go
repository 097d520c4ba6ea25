package experiments

import "testing"

// BenchmarkWeakScale100k times the 100,000-node point (1.6M tasks) on
// the parallel kernel — the scale target the sharded DES exists for.
// The CI smoke test covers it; run it by hand to profile the kernel at
// full population:
//
//	go test ./internal/experiments/ -run NONE -bench WeakScale100k -benchtime 1x
func BenchmarkWeakScale100k(b *testing.B) {
	opts := DefaultOptions()
	opts.Shards = 4
	for i := 0; i < b.N; i++ {
		r := WeakScalePoint(opts, 100000, weakScaleTasksPerNode)
		if r.Tasks != 100000*weakScaleTasksPerNode {
			b.Fatalf("task count = %d", r.Tasks)
		}
	}
	b.ReportMetric(float64(b.N)*float64(100000*weakScaleTasksPerNode)/b.Elapsed().Seconds(), "tasks/s")
}
