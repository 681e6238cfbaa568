package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// medianDuration is the median of ds, which it leaves in order; 0 for none.
// It sorts a copy in *scratch, kept between calls so that none allocates.
func medianDuration(ds []time.Duration, scratch *[]time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append((*scratch)[:0], ds...)
	slices.Sort(s)
	*scratch = s
	return s[len(s)/2]
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// percentileMs is the nearest-rank percentile of sorted durations, in
// milliseconds.
func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process-wide cost counters a round is charged
// by difference.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}
