package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile by the exclusive method
// (Python's statistics.quantiles(xs, n=4) default), which needs two
// samples or more.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile that leaves at least ten
// samples above it, its nearest-rank value and the number of samples
// above it. With fewer than twenty samples it falls back to the median.
func tail(xs []float64) (pct, value float64, beyond int) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 || p == tailPercentiles[len(tailPercentiles)-1] {
			return p, s[rank-1], n - rank
		}
	}
	return 0, 0, 0
}

// windowedTail splits latencies, in completion order, into windows and
// returns the median of the windows' tails, so a burst of stalls moves one
// window, not the figure. Windows hold the largest of 1000, 100 or 40
// samples that fits twice into the run, whose tails are the 99th, 90th and
// 75th percentile; a shorter run is one window. The percentile thus stays
// put while a run's sample count drifts with the machine's speed. It also
// returns the percentile of a window's tail, the samples beyond it, and
// the number of windows.
func windowedTail(xs []float64) (pct, value float64, beyond, windows int) {
	size := len(xs)
	for _, w := range []int{1000, 100, 40} {
		if len(xs) >= 2*w {
			size = w
			break
		}
	}
	var tails []float64
	for i := 0; i+size <= len(xs); i += size {
		var v float64
		pct, v, beyond = tail(xs[i : i+size])
		tails = append(tails, v)
	}
	return pct, median(tails), beyond, len(tails)
}
