package main

import (
	"math"
	"sort"
	"time"
)

// summary is a set of repeated measurements with their median and
// quartiles (Python's statistics.quantiles(values, n=4), the exclusive
// method; one value is its own median and quartiles).
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func summarize(values []float64) summary {
	s := summary{Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		s.Median, s.Q1, s.Q3 = sorted[0], sorted[0], sorted[0]
		return s
	}
	q := quartiles(sorted)
	s.Q1, s.Median, s.Q3 = q[0], q[1], q[2]
	return s
}

// quartiles implements statistics.quantiles(data, n=4, method='exclusive')
// for sorted data of length >= 2.
func quartiles(data []float64) [3]float64 {
	const n = 4
	ld := len(data)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out
}

// median of values (0 for none).
func median(values []float64) float64 {
	return summarize(values).Median
}

// percentileMS returns the p-th percentile (0..100) of durations in
// milliseconds, interpolating linearly between closest ranks.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	v := float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
	return v / float64(time.Millisecond)
}

// sumMS is the total of durations in milliseconds.
func sumMS(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return float64(t) / float64(time.Millisecond)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
