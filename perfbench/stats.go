package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is a set of latencies in milliseconds. A failed or refused
// operation is recorded as +Inf, so it counts as a miss of every
// latency limit and pushes the percentiles up instead of vanishing
// from them.
type sample []float64

func (s *sample) addDur(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }
func (s *sample) addMiss()               { *s = append(*s, math.Inf(1)) }

// tailQ is the highest percentile the benchmark reports: p99 when the
// sample has at least ten values beyond it, otherwise the highest
// quantile that still has ten.
func tailQ(n int) float64 {
	if n <= 0 {
		return 0
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the q-quantile by the nearest-rank rule; 0 for an
// empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func (s sample) p50() float64 { return s.quantile(0.5) }

// Tail windows: a sample of at least 2*tailWindow values, in the order
// it was taken, is split into up to maxWindows consecutive windows of at
// least tailWindow values each, so every window's p99 has ten values
// beyond it.
const (
	tailWindow = 1000
	maxWindows = 10
)

func windows(n int) int { return min(n/tailWindow, maxWindows) }

// tail is the reported tail latency: the median of the windows' p99s,
// so a stall that hits one stretch of the run moves one window rather
// than the result. A sample too small for two windows reports the
// highest quantile with ten values beyond it.
func (s sample) tail() float64 {
	k := windows(len(s))
	if k < 2 {
		return s.quantile(tailQ(len(s)))
	}
	var ps []float64
	for i := 0; i < k; i++ {
		ps = append(ps, s[i*len(s)/k:(i+1)*len(s)/k].quantile(0.99))
	}
	return median(ps)
}

// tailNote says how tail was computed for n values.
func tailNote(n int) string {
	if k := windows(n); k >= 2 {
		return fmt.Sprintf("median p99 of %d windows", k)
	}
	return fmt.Sprintf("q=%.4g", tailQ(n))
}

// median of repeated measurements; the mean of the middle two for an
// even count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	w := append([]float64(nil), v...)
	sort.Float64s(w)
	return (w[(len(w)-1)/2] + w[len(w)/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
