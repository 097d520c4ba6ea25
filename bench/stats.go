package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// pct returns the p-quantile (0..1) of v by linear interpolation
// between closest ranks — internal/metrics' Sample, the repository's
// offline statistics type, so the benchmark adds no percentile
// implementation of its own.
func pct(v []float64, p float64) float64 { return sampleOf(v).Percentile(100 * p) }

func median(v []float64) float64 { return pct(v, 0.5) }

func mean(v []float64) float64 { return sampleOf(v).Mean() }

// tail returns v's tailP quantile.
func tail(v []float64) float64 { return pct(v, tailP(len(v))) }

func sampleOf(v []float64) *metrics.Sample {
	var s metrics.Sample
	for _, x := range v {
		s.Add(x)
	}
	return &s
}

// tailP is the highest percentile, at most p99, that still has ten
// samples beyond it — the tail a sample of size n can support. Below
// twenty samples only the median is meaningful.
func tailP(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// windowedTail is the lower quartile over consecutive equal windows of
// each window's tailP quantile. A single p99 over a few thousand
// samples is set by a dozen of them and swings by tens of percent
// between runs of the same code on a shared two-core box. What disturbs
// a window there (time stolen from a vCPU, a stall of the host) only
// ever adds to its tail, sometimes for most of a run: the median over
// one-second windows still spread 13 to 25 % between runs and the lower
// quartile 7 %, while a change in the code moves every window. It
// returns the percentile used, so the caller can print it.
func windowedTail(samples []float64, windows int) (value, p float64) {
	per := len(samples) / max(windows, 1)
	if windows < 2 || per < 100 {
		return tail(samples), tailP(len(samples))
	}
	p = tailP(per)
	tails := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		tails = append(tails, pct(samples[w*per:(w+1)*per], p))
	}
	return pct(tails, 0.25), p
}

// usage is a reading of the process-wide counters a timed window is
// bracketed with.
type usage struct {
	wall    time.Time
	cpu     time.Duration // RUSAGE_SELF user+sys: this process, children excluded
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// splitmix is the benchmark's input RNG: small, seedable, and the same
// on every platform, so a seed names one input set.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
