package telemetry

import "time"

// Span times one operation. Start it with Registry.StartSpan (or the
// package-level Start/StartSpan against Default) and call End exactly once;
// End records the duration into the span's histogram and, when the registry
// has tracing enabled, appends a SpanEvent to the trace ring.
type Span struct {
	reg   *Registry
	name  string
	hist  *HistogramMetric
	start time.Time
}

// StartSpan begins a span. The duration histogram it feeds is named after
// the span — Sanitize(name) + "_seconds" — so "measure.dns" spans populate
// the "measure_dns_seconds" histogram.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{
		reg:   r,
		name:  name,
		hist:  r.Histogram(Sanitize(name)+"_seconds", "duration of "+name+" spans", nil),
		start: time.Now(),
	}
}

// End stops the span, records its duration, and returns it. End must be
// called exactly once.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	s.hist.ObserveDuration(d)
	if s.reg.traceOn.Load() {
		s.reg.recordSpan(SpanEvent{Name: s.name, Start: s.start, Duration: d})
	}
	return d
}

// SpanEvent is one completed span kept in the trace ring.
type SpanEvent struct {
	Name     string
	Start    time.Time
	Duration time.Duration
}

// EnableTrace switches on the per-run trace ring, keeping the most recent
// capacity completed spans. capacity <= 0 disables tracing (the default:
// the ring costs a mutex per span, so it stays off unless asked for).
func (r *Registry) EnableTrace(capacity int) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if capacity <= 0 {
		r.traceOn.Store(false)
		r.trace, r.traceLen, r.traceAt = nil, 0, 0
		return
	}
	r.trace = make([]SpanEvent, capacity)
	r.traceLen, r.traceAt = 0, 0
	r.traceOn.Store(true)
}

func (r *Registry) recordSpan(ev SpanEvent) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if len(r.trace) == 0 {
		return
	}
	r.trace[r.traceAt] = ev
	r.traceAt = (r.traceAt + 1) % len(r.trace)
	if r.traceLen < len(r.trace) {
		r.traceLen++
	}
}

// TraceEvents returns a copy of the trace ring, oldest span first. Empty
// unless EnableTrace was called.
func (r *Registry) TraceEvents() []SpanEvent {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if r.traceLen == 0 {
		return nil
	}
	out := make([]SpanEvent, 0, r.traceLen)
	start := r.traceAt - r.traceLen
	if start < 0 {
		start += len(r.trace)
	}
	for i := 0; i < r.traceLen; i++ {
		out = append(out, r.trace[(start+i)%len(r.trace)])
	}
	return out
}
