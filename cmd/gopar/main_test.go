package main

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/args"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/span"
)

func collect(t *testing.T, s args.Source) [][]string {
	t.Helper()
	recs, err := args.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestSplitInputsLiteral(t *testing.T) {
	cmd, src, err := splitInputs([]string{"echo", "{}", ":::", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cmd, []string{"echo", "{}"}) {
		t.Fatalf("cmd = %v", cmd)
	}
	recs := collect(t, src)
	if !reflect.DeepEqual(recs, [][]string{{"a"}, {"b"}}) {
		t.Fatalf("recs = %v", recs)
	}
}

func TestSplitInputsCartesian(t *testing.T) {
	_, src, err := splitInputs([]string{"cmd", ":::", "a", "b", ":::", "1", "2"})
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, src)
	want := [][]string{{"a", "1"}, {"a", "2"}, {"b", "1"}, {"b", "2"}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("recs = %v", recs)
	}
}

func TestSplitInputsZip(t *testing.T) {
	_, src, err := splitInputs([]string{"cmd", ":::", "a", "b", ":::+", "1", "2"})
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, src)
	want := [][]string{{"a", "1"}, {"b", "2"}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("recs = %v", recs)
	}
}

func TestSplitInputsErrors(t *testing.T) {
	if _, _, err := splitInputs([]string{":::", "a"}); err == nil {
		t.Error("missing command accepted")
	}
	if _, _, err := splitInputs([]string{"cmd", ":::+", "a"}); err == nil {
		t.Error(":::+ without preceding group accepted")
	}
	if _, _, err := splitInputs([]string{"cmd", "::::", "f1", "f2"}); err == nil {
		t.Error(":::: with two files accepted")
	}
}

func TestSplitInputsStdinFallback(t *testing.T) {
	cmd, src, err := splitInputs([]string{"wc", "-l"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmd) != 2 || src == nil {
		t.Fatalf("cmd=%v src=%v", cmd, src)
	}
}

func TestParseHalt(t *testing.T) {
	cases := []struct {
		in   string
		want core.HaltPolicy
		ok   bool
	}{
		{"", core.HaltPolicy{}, true},
		{"soon,fail=1", core.HaltPolicy{When: core.HaltSoon, Threshold: 1}, true},
		{"now,fail=3", core.HaltPolicy{When: core.HaltNow, Threshold: 3}, true},
		{"now,success=2", core.HaltPolicy{When: core.HaltNow, Threshold: 2, OnSuccess: true}, true},
		{"now,fail=10%", core.HaltPolicy{When: core.HaltNow, Percent: 10}, true},
		{"soon,fail=2.5%", core.HaltPolicy{When: core.HaltSoon, Percent: 2.5}, true},
		{"soon,success=50%", core.HaltPolicy{When: core.HaltSoon, Percent: 50, OnSuccess: true}, true},
		{"sometime,fail=1", core.HaltPolicy{}, false},
		{"soon,fail", core.HaltPolicy{}, false},
		{"soon,fail=zero", core.HaltPolicy{}, false},
		{"soon,fail=0", core.HaltPolicy{}, false},
		{"soon,fail=0%", core.HaltPolicy{}, false},
		{"soon,fail=101%", core.HaltPolicy{}, false},
		{"soon,fail=x%", core.HaltPolicy{}, false},
		{"soon", core.HaltPolicy{}, false},
		{"soon,crash=1", core.HaltPolicy{}, false},
	}
	for _, c := range cases {
		got, err := parseHalt(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseHalt(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseHalt(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseBackoff(t *testing.T) {
	cases := []struct {
		in   string
		want core.Backoff
		ok   bool
	}{
		{"", core.Backoff{}, true},
		{"1s", core.Backoff{Base: time.Second, Jitter: 0.1}, true},
		{"500ms,30s", core.Backoff{Base: 500 * time.Millisecond, Cap: 30 * time.Second, Jitter: 0.1}, true},
		{"500ms, 30s", core.Backoff{Base: 500 * time.Millisecond, Cap: 30 * time.Second, Jitter: 0.1}, true},
		{"0s", core.Backoff{}, false},
		{"-1s", core.Backoff{}, false},
		{"nope", core.Backoff{}, false},
		{"1s,500ms", core.Backoff{}, false}, // cap below base
		{"1s,nope", core.Backoff{}, false},
	}
	for _, c := range cases {
		got, err := parseBackoff(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseBackoff(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseBackoff(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestRenderAndSparkline(t *testing.T) {
	if got := sparkline([]span.UtilPoint{{Busy: 0}, {Busy: 1}, {Busy: 0.5}, {Busy: 2}}); got != "▁█▅█" {
		t.Fatalf("sparkline = %q", got)
	}
	a := span.Analyze(span.FromJoblog([]core.JoblogEntry{
		{Seq: 1, Start: 0, Runtime: 4}, {Seq: 2, Start: 0, Runtime: 2}, {Seq: 3, Start: 2, Runtime: 2},
	}))
	var b strings.Builder
	printReport(&b, reportDoc{Analysis: a, Source: "joblog:test"}, false)
	out := b.String()
	for _, want := range []string{"Run summary", "Parallel profile", "effective_parallelism",
		"recommended_jobs", "2.128 ms dispatch", "slot utilization: mean 100.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "utilization "+strings.Repeat("█", len(a.Utilization))) {
		t.Fatalf("sparkline of a fully busy run missing:\n%s", out)
	}
}

// TestPoolJobs: -S runs the pool's credit window unless -j was lowered
// below the pool or a job's slot number must name its worker slot.
func TestPoolJobs(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go dist.Serve(ctx, l, dist.WorkerConfig{Slots: 4})
	pool, err := dist.Dial([]dist.WorkerSpec{{Addr: l.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	slots, window := pool.Slots(), pool.Window()
	cases := []struct {
		command string
		jobs    int
		slotEnv bool
		want    int
	}{
		{"echo {}", 8, false, window},   // default -j
		{"echo {}", 4, false, window},   // -j at the pool
		{"echo {}", 100, false, window}, // -j above the pool
		{"echo {}", 2, false, 2},        // -j lowered below the pool
		{"echo {%} {}", 8, false, slots},
		{"echo {}", 8, true, slots}, // --gpu-env
		{"echo {%}", 2, false, 2},
	}
	for _, c := range cases {
		spec, err := core.NewSpec(c.command, c.jobs)
		if err != nil {
			t.Fatal(err)
		}
		if c.slotEnv {
			spec.SlotEnv = func(int) []string { return nil }
		}
		if got := poolJobs(spec, pool); got != c.want {
			t.Errorf("poolJobs(%q, -j %d, slotEnv %v) = %d, want %d", c.command, c.jobs, c.slotEnv, got, c.want)
		}
	}
}
