package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
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

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, including its extrapolation for tiny samples), so
// the spread printed here matches one computed over result files.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	return quartile(s, 1), quartile(s, 3)
}

// quartile is cut point i (1..3) of sorted s.
func quartile(s []float64, i int) float64 {
	ld := len(s)
	m := ld + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// tail is the highest-percentile summary of a sample set: the value
// at Percentile, the percentile it sits at, and the sample count it
// was taken over.
type tail struct {
	Value      float64
	Percentile float64
	Samples    int
	Beyond     int // samples greater than Value
}

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTailBeyond = 10

// tailOf returns the tail of xs, gathered in groups of equal size (the
// passes of a run), at the highest percentile one group resolves with
// minTailBeyond samples beyond it. It is taken over all of xs: the value
// that minTailBeyond samples per group exceed, at percentile
// 100*(1 - groups*minTailBeyond/n). Pooling the groups keeps the
// percentile fixed by the group size while the estimate rests on every
// sample beyond it. With too few samples for that, it falls back to the
// median.
func tailOf(xs []float64, groups int) tail {
	n := len(xs)
	beyond := max(groups, 1) * minTailBeyond
	if n <= 2*beyond {
		return tail{Value: median(xs), Percentile: 50, Samples: n, Beyond: n / 2}
	}
	s := sorted(xs)
	return tail{
		Value:      s[n-1-beyond],
		Percentile: 100 * (1 - float64(beyond)/float64(n)),
		Samples:    n,
		Beyond:     beyond,
	}
}

// failedFrac is failures over attempts; no attempts is reported as a
// total failure, since nothing was shown to work.
func failedFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
