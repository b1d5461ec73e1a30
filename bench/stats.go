package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// window is the width of the intervals a measured phase is cut into.
// Latency percentiles and rates are taken per window, and the value of
// the best tenth of the windows is reported. On a shared host a
// neighbour on the same physical core slows CPU-bound code by up to 2x
// for seconds at a time (a dependent-multiply loop barely notices; a
// forward pass does), so the median window measures the neighbour as
// much as the program. The best tenth is the program's speed when it
// has its cores to itself, and a change to the program moves every
// window, so the best tenth too. The price: interference, and a tail
// event rarer than once every few windows, does not show.
const window = time.Second

// bestPct is the percentile, counted from the better end, of the
// windows a windowed metric reports.
const bestPct = 10

// minWindows is the fewest windows the best tenth is taken from; a
// shorter phase is measured whole.
const minWindows = 8

// windowBest cuts [0, span) into whole windows, applies stat (a
// latency: lower is better) to the values observed (at[i]) in each
// non-empty window, and returns the bestPct-th percentile over windows.
// With fewer than minWindows whole windows it applies stat to all
// values.
func windowBest(at []time.Duration, vals []float64, span time.Duration, stat func([]float64) float64) float64 {
	n := int(span / window)
	if n < minWindows {
		return stat(vals)
	}
	groups := make([][]float64, n)
	for i, t := range at {
		if k := int(t / window); k >= 0 && k < n {
			groups[k] = append(groups[k], vals[i])
		}
	}
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, stat(g))
		}
	}
	return percentile(per, bestPct)
}

// pct returns the p-th percentile as a window statistic.
func pct(p float64) func([]float64) float64 {
	return func(xs []float64) float64 { return percentile(xs, p) }
}

// windowRate is the amount completed (at[i]) per second in the best
// tenth of the whole windows of [0, span): the (100-bestPct)-th
// percentile of the per-window rates. With fewer than minWindows whole
// windows it is the total over span.
func windowRate(at []time.Duration, amounts []float64, span time.Duration) float64 {
	n := int(span / window)
	if n < minWindows {
		var total float64
		for _, a := range amounts {
			total += a
		}
		return total / span.Seconds()
	}
	sums := make([]float64, n)
	for i, t := range at {
		if k := int(t / window); k >= 0 && k < n {
			sums[k] += amounts[i]
		}
	}
	return percentile(sums, 100-bestPct) / window.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perCall times fn and returns its median duration per call: fn runs in
// batches long enough (>= 2 ms) for the clock to resolve, eleven
// batches are timed, and the median batch is divided by its size.
func perCall(fn func()) time.Duration {
	fn()
	k := 1
	for {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		if time.Since(t0) >= 2*time.Millisecond {
			break
		}
		k *= 2
	}
	batches := make([]float64, 11)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0)) / float64(k)
	}
	return time.Duration(median(batches))
}
