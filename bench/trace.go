package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"depscope/internal/telemetry"
)

// spanRec is one recorded span. Times are milliseconds since the tracer
// started; Parent is 0 for a root span.
type spanRec struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Self   float64 `json:"self_ms"`
}

// tracer keeps the spans of one benchmark run in memory. A nil *tracer is
// valid and records nothing, so untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is a handle on an open span; the zero span records nothing.
type span struct {
	t  *tracer
	id int
}

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Millisecond)
}

// root opens a span with no parent; run names the repetition it belongs to
// and is inherited by every span below it.
func (t *tracer) root(run, name string) span {
	if t == nil {
		return span{}
	}
	return t.open(0, run, name, time.Now())
}

// child opens a span below s.
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	s.t.mu.Lock()
	run := s.t.spans[s.id-1].Run
	s.t.mu.Unlock()
	return s.t.open(s.id, run, name, time.Now())
}

func (t *tracer) open(parent int, run, name string, at time.Time) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name, Run: run, Start: t.since(at)})
	return span{t, id}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	now := s.t.since(time.Now())
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	r := &s.t.spans[s.id-1]
	r.End = now
}

// adopt records spans the program emitted into the telemetry trace ring
// (analysis.Report times each render step that way) as descendants of s,
// nesting them by interval containment. Events outside s are ignored.
func (s span) adopt(evs []telemetry.SpanEvent) {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	outer := t.spans[s.id-1]
	type ev struct {
		name       string
		start, end float64
	}
	var in []ev
	for _, e := range evs {
		st, en := t.since(e.Start), t.since(e.Start.Add(e.Duration))
		if st >= outer.Start && en <= outer.End {
			in = append(in, ev{e.Name, st, en})
		}
	}
	// Outer spans first: earlier start, then longer.
	sort.SliceStable(in, func(a, b int) bool {
		if in[a].start != in[b].start {
			return in[a].start < in[b].start
		}
		return in[a].end > in[b].end
	})
	stack := []int{s.id}
	for _, e := range in {
		for len(stack) > 1 && t.spans[stack[len(stack)-1]-1].End < e.end {
			stack = stack[:len(stack)-1]
		}
		id := len(t.spans) + 1
		t.spans = append(t.spans, spanRec{ID: id, Parent: stack[len(stack)-1], Name: e.name,
			Run: outer.Run, Start: e.start, End: e.end})
		stack = append(stack, id)
	}
}

// finish computes every span's self time: its duration minus the part of
// its interval covered by its children (overlapping children, as parallel
// snapshots produce, are counted once).
func (t *tracer) finish() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for _, r := range t.spans {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], r.ID)
		}
	}
	for i := range t.spans {
		r := &t.spans[i]
		var iv [][2]float64
		for _, k := range kids[r.ID] {
			c := t.spans[k-1]
			lo, hi := max(c.Start, r.Start), min(c.End, r.End)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		r.Self = r.End - r.Start - covered(iv)
	}
	return append([]spanRec(nil), t.spans...)
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerTotals sums, per span name, the durations (ms) of the spans with no
// ancestor of the same name, so a name nested in itself counts once.
func layerTotals(spans []spanRec) map[string]float64 {
	total := make(map[string]float64)
	byID := make(map[int]spanRec, len(spans))
	for _, r := range spans {
		byID[r.ID] = r
	}
	for _, r := range spans {
		nested := false
		for p := r.Parent; p != 0; p = byID[p].Parent {
			if byID[p].Name == r.Name {
				nested = true
				break
			}
		}
		if !nested {
			total[r.Name] += r.End - r.Start
		}
	}
	return total
}

// writeTrace writes the spans of one workload run as JSON.
func writeTrace(path, workload string, seed int64, spans []spanRec) error {
	b, err := json.MarshalIndent(map[string]any{
		"workload": workload,
		"seed":     seed,
		"spans":    spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
