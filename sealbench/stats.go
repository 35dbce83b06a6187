package main

import (
	"math"
	"sort"

	"sealdb/internal/obs"
)

// Exact order statistics over the benchmark's own per-op samples.
// Nothing here buckets: p50 and p99 are nearest-rank picks from the
// sorted samples, so a fast phase cannot report p50 = 0 or p50 = p99
// merely because both fell into one histogram bucket.

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted. It returns 0 for an empty slice; callers report the sample
// count beside the value so an empty input is visible.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(samples []int64) []int64 {
	out := append([]int64(nil), samples...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quartiles returns the first quartile, median and third quartile of
// xs. Q1 and Q3 follow Python's statistics.quantiles(xs, n=4) (method
// "exclusive") to the letter, including its clamping, so the spreads
// printed here match the ones computed over repeated runs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), median(s), at(3)
}

// median returns the middle value of xs (mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure the bounds in BENCHMARK.json are set
// against. It is 0 when the median is 0.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// ratio is a quotient reported together with its base, so a zero
// from "nothing happened" is distinguishable from a zero measured
// over a large base.
type ratio struct {
	Value float64 `json:"value"`
	Num   float64 `json:"num"`
	Base  float64 `json:"base"`
}

// ratioOf divides num by base, scaled by per (1 for a plain ratio,
// 1000 for a per-kop rate). A zero base yields a zero value.
func ratioOf(num, base, per float64) ratio {
	r := ratio{Num: num, Base: base}
	if base != 0 {
		r.Value = num / base * per
	}
	return r
}

// histDelta subtracts an earlier snapshot of a cumulative obs
// histogram from a later one, bucket by bucket, so a quantile can be
// taken over just the observations made in between. Max is the later
// snapshot's lifetime maximum (the histogram keeps no windowed max);
// Quantile only uses it to clamp the top bucket.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	prev := make(map[int64]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.UpperBound] = b.Count
	}
	d := obs.HistogramSnapshot{
		Count: after.Count - before.Count,
		Sum:   after.Sum - before.Sum,
		Max:   after.Max,
	}
	for _, b := range after.Buckets {
		if n := b.Count - prev[b.UpperBound]; n > 0 {
			d.Buckets = append(d.Buckets, obs.Bucket{UpperBound: b.UpperBound, Count: n})
		}
	}
	return d
}

// histMean is the mean observation of a (delta) histogram snapshot;
// Sum is exact, so the mean is not quantised.
func histMean(h obs.HistogramSnapshot) float64 {
	if h.Count <= 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
