package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; totals must be exact (run under -race by make
// verify, which also proves the hot path is data-race-free).
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_inflight", "in flight")
	h := r.Histogram("test_latency_seconds", "latency", nil)

	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.count.Load(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	want := float64(workers*perWorker) * 0.001
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation equal
// to a bound lands in that bound's bucket (inclusive upper bounds), one just
// above lands in the next, and values beyond the last bound go to +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_bounds", "bounds", []float64{1, 2, 5})

	for _, v := range []float64{0.5, 1, 1.0001, 2, 4.9, 5, 5.0001, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(s.Histograms))
	}
	hv := s.Histograms[0]
	// Cumulative: <=1: {0.5, 1} = 2; <=2: +{1.0001, 2} = 4; <=5: +{4.9, 5} = 6; +Inf: 8.
	wantCum := []int64{2, 4, 6, 8}
	if len(hv.Buckets) != len(wantCum) {
		t.Fatalf("got %d buckets, want %d", len(hv.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if hv.Buckets[i].Count != want {
			t.Errorf("bucket %d (le=%g): count %d, want %d", i, hv.Buckets[i].UpperBound, hv.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(hv.Buckets[3].UpperBound, 1) {
		t.Errorf("last bucket bound = %g, want +Inf", hv.Buckets[3].UpperBound)
	}
	if hv.Count != 8 {
		t.Errorf("count = %d, want 8", hv.Count)
	}
}

// TestSnapshotIsolation: a snapshot is a frozen copy — metrics mutated
// afterwards must not show through, and two snapshots are independent.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	h := r.Histogram("test_seconds", "t", []float64{1})
	c.Add(5)
	h.Observe(0.5)

	before := r.Snapshot()
	c.Add(100)
	h.Observe(0.5)
	h.Observe(2)

	if got := before.Counters[0].Value; got != 5 {
		t.Errorf("snapshot counter mutated: %d, want 5", got)
	}
	if got := before.Histograms[0].Count; got != 1 {
		t.Errorf("snapshot histogram mutated: count %d, want 1", got)
	}
	after := r.Snapshot()
	if got := after.Counters[0].Value; got != 105 {
		t.Errorf("live counter = %d, want 105", got)
	}
	if got := after.Histograms[0].Count; got != 3 {
		t.Errorf("live histogram count = %d, want 3", got)
	}
	// Mutating the first snapshot's slices must not leak into the second.
	before.Counters[0].Value = -1
	if after.Counters[0].Value != 105 {
		t.Error("snapshots share backing storage")
	}
}

func TestRegisterIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_name", "first")
	b := r.Counter("same_name", "second help ignored")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("same_name", "conflict")
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"measure.dns":       "measure_dns",
		"ok_name_total":     "ok_name_total",
		"9starts_with_num":  "_9starts_with_num",
		"weird name/chars!": "weird_name_chars_",
		"":                  "_",
	} {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSpanRecordsHistogramAndTrace(t *testing.T) {
	r := NewRegistry()
	r.EnableTrace(2)
	for i := 0; i < 3; i++ {
		sp := r.StartSpan("measure.dns")
		time.Sleep(time.Millisecond)
		if d := sp.End(); d <= 0 {
			t.Fatalf("span duration = %v", d)
		}
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 || s.Histograms[0].Name != "measure_dns_seconds" {
		t.Fatalf("span histogram missing: %+v", s.Histograms)
	}
	if s.Histograms[0].Count != 3 {
		t.Errorf("span histogram count = %d, want 3", s.Histograms[0].Count)
	}
	// The ring holds only the most recent 2 of the 3 spans.
	evs := r.TraceEvents()
	if len(evs) != 2 {
		t.Fatalf("trace ring holds %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Name != "measure.dns" || ev.Duration <= 0 {
			t.Errorf("bad trace event %+v", ev)
		}
	}
	if !evs[0].Start.Before(evs[1].Start) {
		t.Error("trace events not oldest-first")
	}
}

func TestQuantileEstimate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "q", []float64{1, 2, 4})
	// 10 observations uniform in (0,1]; p50 interpolates inside that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	hv := r.Snapshot().Histograms[0]
	if p50 := hv.Quantile(0.5); p50 <= 0 || p50 > 1 {
		t.Errorf("p50 = %g, want within (0, 1]", p50)
	}
	if p100 := hv.Quantile(1); p100 != 1 {
		t.Errorf("p100 = %g, want 1 (upper bound of only populated bucket)", p100)
	}
	if empty := (HistogramValue{}).Quantile(0.5); empty != 0 {
		t.Errorf("empty quantile = %g, want 0", empty)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.00042)
		}
	})
}

func BenchmarkSpan(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < b.N; i++ {
		r.StartSpan("bench.span").End()
	}
}
