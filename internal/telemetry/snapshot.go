package telemetry

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Snapshot is a consistent point-in-time copy of a registry: plain values,
// safe to hold, marshal, or compare while the live metrics keep moving.
// Each metric kind is sorted by name.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// CounterValue is one counter's frozen state.
type CounterValue struct {
	Name, Help string
	Value      int64
}

// GaugeValue is one gauge's frozen state.
type GaugeValue struct {
	Name, Help string
	Value      int64
}

// HistogramValue is one histogram's frozen state. Buckets carry cumulative
// counts in Prometheus "le" semantics: Buckets[i].Count is the number of
// observations <= Buckets[i].UpperBound, and the last bucket is +Inf (its
// count equals Count).
type HistogramValue struct {
	Name, Help string
	Buckets    []Bucket
	Count      int64
	Sum        float64
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	UpperBound float64 // +Inf on the last bucket
	Count      int64   // observations <= UpperBound
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the cumulative
// buckets by linear interpolation inside the target bucket, the standard
// fixed-bucket estimator. Returns 0 on an empty histogram; a quantile that
// lands in the +Inf bucket reports the last finite bound.
func (h HistogramValue) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	for i, b := range h.Buckets {
		if float64(b.Count) < rank {
			continue
		}
		if i == len(h.Buckets)-1 {
			// +Inf bucket: no finite upper bound to interpolate toward.
			if len(h.Buckets) >= 2 {
				return h.Buckets[len(h.Buckets)-2].UpperBound
			}
			return 0
		}
		lo, loCount := 0.0, int64(0)
		if i > 0 {
			lo, loCount = h.Buckets[i-1].UpperBound, h.Buckets[i-1].Count
		}
		width := float64(b.Count - loCount)
		if width == 0 {
			return b.UpperBound
		}
		return lo + (b.UpperBound-lo)*(rank-float64(loCount))/width
	}
	return h.Buckets[len(h.Buckets)-1].UpperBound
}

// Mean is Sum/Count, 0 when empty.
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot copies every registered metric into a Snapshot. The copy is
// per-metric atomic (each value is read once); the set as a whole is as
// consistent as a lock-free registry allows, which is all any scraper gets.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.metrics.Range(func(_, v any) bool {
		switch m := v.(type) {
		case *CounterMetric:
			s.Counters = append(s.Counters, CounterValue{Name: m.name, Help: m.helpText, Value: m.Value()})
		case *GaugeMetric:
			s.Gauges = append(s.Gauges, GaugeValue{Name: m.name, Help: m.helpText, Value: m.Value()})
		case *HistogramMetric:
			hv := HistogramValue{Name: m.name, Help: m.helpText, Sum: m.Sum()}
			cum := int64(0)
			for i := range m.counts {
				cum += m.counts[i].Load()
				bound := inf()
				if i < len(m.bounds) {
					bound = m.bounds[i]
				}
				hv.Buckets = append(hv.Buckets, Bucket{UpperBound: bound, Count: cum})
			}
			hv.Count = cum
			s.Histograms = append(s.Histograms, hv)
		}
		return true
	})
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteTable renders the snapshot as a human-readable, name-sorted table —
// the backend of depscope -telemetry. Histogram rows summarize count, mean
// and estimated p50/p99 (durations formatted as such).
func (s Snapshot) WriteTable(w io.Writer) {
	for _, c := range s.Counters {
		fmt.Fprintf(w, "counter    %-42s %12d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "gauge      %-42s %12d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "histogram  %-42s %12d  mean %-10s p50 %-10s p99 %-10s\n",
			h.Name, h.Count, fmtSeconds(h.Mean()), fmtSeconds(h.Quantile(0.5)), fmtSeconds(h.Quantile(0.99)))
	}
}

// fmtSeconds renders a value in seconds as a duration string ("1.2ms").
func fmtSeconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}
