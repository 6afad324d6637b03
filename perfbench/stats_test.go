package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending input: order must not matter
	}
	got := tailOf(xs, 1)
	if got.Value != 189 || got.Samples != 200 || got.Beyond != 10 || !near(got.Percentile, 95) {
		t.Fatalf("tailOf(0..199, 1) = %+v, want value 189 at p95 over 200", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != minTailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, minTailBeyond)
	}
}

// Pooled groups keep the percentile of one group and count ten samples
// beyond it per group.
func TestTailPoolsGroupsAtOneGroupsPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := tailOf(xs, 5) // five groups of 200
	if got.Value != 949 || got.Beyond != 50 || !near(got.Percentile, 95) {
		t.Fatalf("tailOf(0..999, 5) = %+v, want value 949 at p95 with 50 beyond", got)
	}
}

func TestTailFallsBackToMedianWhenFewSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	got := tailOf(xs, 1)
	if got.Percentile != 50 || !near(got.Value, 10.5) {
		t.Fatalf("tailOf(20 samples) = %+v, want the median at p50", got)
	}
}

func TestFailedFrac(t *testing.T) {
	if got := failedFrac(0, 40); got != 0 {
		t.Errorf("failedFrac(0, 40) = %v", got)
	}
	if got := failedFrac(3, 300); !near(got, 0.01) {
		t.Errorf("failedFrac(3, 300) = %v", got)
	}
	if got := failedFrac(0, 0); got != 1 {
		t.Errorf("failedFrac(0, 0) = %v, want 1: nothing attempted is nothing shown to work", got)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4}); !near(got, 2.5/2.5) {
		t.Errorf("spread = %v", got)
	}
	if !math.IsInf(spread([]float64{0, 0}), 1) {
		t.Error("spread of a zero median must be infinite")
	}
}
