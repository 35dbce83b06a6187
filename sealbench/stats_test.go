package main

import (
	"math"
	"testing"

	"sealdb/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1},
	}
	for _, c := range cases {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %d, want 7", got)
	}
}

// Fast, tightly clustered samples must keep distinct p50 and p99:
// the quantisation this code replaces collapsed them into one bucket.
func TestPercentileNoQuantisation(t *testing.T) {
	var s []int64
	for i := 0; i < 1000; i++ {
		s = append(s, 1000+int64(i)) // 1000..1999 ns
	}
	s = sortedCopy(s)
	p50, p99 := percentile(s, 0.5), percentile(s, 0.99)
	if p50 != 1499 || p99 != 1989 {
		t.Fatalf("p50=%d p99=%d, want 1499 and 1989", p50, p99)
	}
}

func TestSortedCopyLeavesInput(t *testing.T) {
	in := []int64{3, 1, 2}
	out := sortedCopy(in)
	if in[0] != 3 || out[0] != 1 || out[2] != 3 {
		t.Fatalf("in=%v out=%v", in, out)
	}
}

// Expected values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 4, 4, 4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func TestRatioOfKeepsBase(t *testing.T) {
	r := ratioOf(3, 4, 1)
	if r.Value != 0.75 || r.Num != 3 || r.Base != 4 {
		t.Errorf("ratioOf(3,4,1) = %+v", r)
	}
	if r := ratioOf(5, 2000, 1000); r.Value != 2.5 {
		t.Errorf("per-kop ratio = %v, want 2.5", r.Value)
	}
	if r := ratioOf(5, 0, 1); r.Value != 0 || r.Num != 5 || r.Base != 0 {
		t.Errorf("zero base = %+v, want value 0 with num kept", r)
	}
}

func TestHistDelta(t *testing.T) {
	h := obs.NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	before := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(5000)
	}
	d := histDelta(before, h.Snapshot())
	if d.Count != 50 || d.Sum != 50*5000 {
		t.Fatalf("delta count=%d sum=%d", d.Count, d.Sum)
	}
	if p := d.Quantile(0.5); p < 5000 || p > 5000*17/16 {
		t.Errorf("delta p50 = %d, want the 5000 bucket", p)
	}
	if m := histMean(d); m != 5000 {
		t.Errorf("delta mean = %v, want 5000", m)
	}
	if m := histMean(obs.HistogramSnapshot{}); m != 0 {
		t.Errorf("empty mean = %v", m)
	}
}
