package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile of an ascending-sorted sample by the
// nearest-rank rule ⌈q·n⌉−1, with the same float-ulp guard as
// rsm.Percentile so live and simulated tables use one statistic (the
// element types differ, hence the local copy; stats_test.go pins parity).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	const eps = 1e-9
	rank := int(math.Ceil(q*float64(len(sorted))-eps)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile sorts a copy of xs and returns its q-quantile.
func quantile(xs []int64, q float64) int64 { return percentile(sortedCopy(xs), q) }

// medianOf returns the nearest-rank median of xs (0 when empty).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// medianOfMeans splits xs, in order, into groups of `group` samples and
// returns the median of the groups' means. Cold starts are bimodal (a
// start either catches its first rounds or waits out a timeout), and the
// plain median of a bimodal sample jumps between the modes with their
// mix; a group's mean blends them, the median over groups still shrugs
// off a stalled group.
func medianOfMeans(xs []float64, group int) float64 {
	var means []float64
	for i := 0; i+group <= len(xs); i += group {
		sum := 0.0
		for _, x := range xs[i : i+group] {
			sum += x
		}
		means = append(means, sum/float64(group))
	}
	return medianOf(means)
}

// spreadOf is the interquartile range of xs over their median, the
// sub-window spread printed next to every windowed metric (the same
// statistic the benchmark contract applies across runs); 0 when the
// median is 0.
func spreadOf(xs []float64) float64 {
	m := medianOf(xs)
	if m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(3*len(s)-1)/4] - s[(len(s)-1)/4]) / m
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
