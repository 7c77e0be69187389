package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, the "percentile" is a handful of outliers.
const minBeyond = 10

// tailLevels are the tail percentiles tried, highest first.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of xs and whether at least
// minBeyond samples lie above it.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return s[i], len(s)-1-i >= minBeyond
}

// tail returns the highest of tailLevels that has minBeyond samples above
// it, with its value; ok is false when not even the lowest level qualifies.
func tail(xs []float64) (level, v float64, ok bool) {
	for _, q := range tailLevels {
		if v, ok := percentile(xs, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads printed here match the ones computed over
// the same values elsewhere. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// ladderStep is one offered rate of the serve ladder, as the knee rule sees
// it. Latencies are in milliseconds.
type ladderStep struct {
	// P99 is the nearest-rank p99 of every request due in the step, reads
	// and writes, timed from the due time.
	P99 float64
	// Failed counts requests of the step that errored or failed a check; a
	// failed request misses any latency limit.
	Failed int
	// Backlog reports that requests were still piling up at the step's end.
	Backlog bool
	// LagP99 is how late the generator dispatched requests (p99).
	LagP99 float64
}

// sloP99Ms is the serve latency limit: p99 of all requests of a step.
const sloP99Ms = 50

// maxLagMs is the generator lateness above which a step below the knee is
// reported invalid: the load was not offered on schedule.
const maxLagMs = 5

func (s ladderStep) meetsSLO() bool {
	return s.Failed == 0 && !s.Backlog && s.P99 <= sloP99Ms
}

// knee returns the index of the highest ladder step such that it and every
// step below it meet the SLO, or -1 when the first step already misses it.
// A step that passes above a failing one is noise, not capacity.
func knee(steps []ladderStep) int {
	k := -1
	for i, s := range steps {
		if !s.meetsSLO() {
			break
		}
		k = i
	}
	return k
}
