package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of samples (0 < q ≤ 1):
// the smallest sample with at least q·n samples at or below it. It sorts
// a copy, so callers keep their order. Nearest rank never interpolates,
// so a reported p90 is a latency some frame actually had, and with n
// samples exactly n − ⌈0.9·n⌉ of them lie beyond it.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank median.
func median(samples []float64) float64 { return percentile(samples, 0.5) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// usage is the process's resource counters at one instant.
type usage struct {
	cpu     time.Duration // user + system CPU time of every thread
	maxRSSB int64         // peak resident set so far (getrusage ru_maxrss)
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSB: ru.Maxrss << 10, // Linux reports kilobytes
	}
}
