package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples is noise.
const tailBeyond = 10

// tailQ is the highest quantile of n samples that still has tailBeyond
// samples above it (n = 1000 gives p99, n = 100 gives p90). Below 20
// samples no quantile above the median qualifies, so the median is the
// tail.
func tailQ(n int) float64 {
	if n < 2*tailBeyond {
		return 0.5
	}
	return 1 - float64(tailBeyond)/float64(n)
}

// quantile is the nearest-rank quantile of sorted values: the smallest
// value with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist is a latency sample set in milliseconds.
type dist []float64

func (d *dist) add(v time.Duration) { *d = append(*d, float64(v)/float64(time.Millisecond)) }

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// p50 is the median.
func (d dist) p50() float64 { return quantile(d.sorted(), 0.5) }

// p90 is the 90th percentile.
func (d dist) p90() float64 { return quantile(d.sorted(), 0.9) }

// tail is the value at tailQ(len(d)).
func (d dist) tail() float64 { return quantile(d.sorted(), tailQ(len(d))) }

// within counts the samples at or under limit ms.
func (d dist) within(limit float64) int {
	n := 0
	for _, v := range d {
		if v <= limit {
			n++
		}
	}
	return n
}

// median of a small set of run-level values (setup times, heap sizes),
// the mean of the middle two for an even count.
func median(vs []float64) float64 {
	_, q2, _ := quartiles(vs)
	return q2
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// quartiles returns Q1, Q2 and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so spreads printed here match the ones the
// benchmark's acceptance rules are stated in.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
