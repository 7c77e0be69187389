package main

import (
	"math"
	"testing"
	"time"

	"depscope/internal/telemetry"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []spanRec{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 5},  // overlaps a: parallel work
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 2, End: 4},
	}}
	want := map[string]float64{"root": 10 - (4 + 2), "a": 2, "b": 3 - 2, "c": 4, "d": 2}
	for _, r := range tr.finish() {
		if math.Abs(r.Self-want[r.Name]) > 1e-9 {
			t.Errorf("self(%s) = %g, want %g", r.Name, r.Self, want[r.Name])
		}
	}
}

func TestLayerTotalsCountNestedNamesOnce(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "analysis.mitigation", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "analysis.mitigation", Start: 1, End: 9},
		{ID: 3, Name: "measure.run", Start: 0, End: 4},
		{ID: 4, Name: "measure.run", Start: 0, End: 6},
	}
	got := layerTotals(spans)
	if got["analysis.mitigation"] != 10 || got["measure.run"] != 10 {
		t.Errorf("totals %v, want mitigation 10 and measure.run 10", got)
	}
}

func TestAdoptNestsProgramSpansByContainment(t *testing.T) {
	tr := newTracer()
	root := tr.root("run1", "root")
	render := root.child("analysis.render")
	t0 := time.Now()
	time.Sleep(2 * time.Millisecond)
	render.end()
	root.end()
	ev := func(name string, from, to int) telemetry.SpanEvent {
		return telemetry.SpanEvent{Name: name, Start: t0.Add(time.Duration(from) * 100 * time.Microsecond),
			Duration: time.Duration(to-from) * 100 * time.Microsecond}
	}
	render.adopt([]telemetry.SpanEvent{
		ev("analysis.table1", 1, 3),
		ev("analysis.report", 0, 10),
		ev("incident.scenario", 5, 6),
		ev("analysis.dyn_replay", 4, 7),
		ev("too.late", 0, 1000), // ends after the render span
	})
	parent := make(map[string]string)
	byID := make(map[int]string)
	for _, r := range tr.finish() {
		byID[r.ID] = r.Name
		if r.Run != "run1" {
			t.Errorf("span %s has run %q, want run1", r.Name, r.Run)
		}
	}
	for _, r := range tr.finish() {
		parent[r.Name] = byID[r.Parent]
	}
	want := map[string]string{
		"analysis.render":     "root",
		"analysis.report":     "analysis.render",
		"analysis.table1":     "analysis.report",
		"analysis.dyn_replay": "analysis.report",
		"incident.scenario":   "analysis.dyn_replay",
	}
	for name, p := range want {
		if parent[name] != p {
			t.Errorf("parent of %s = %q, want %q", name, parent[name], p)
		}
	}
	if _, ok := parent["too.late"]; ok {
		t.Error("adopted a span outside the render interval")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.root("r", "x")
	sp.child("y").end()
	sp.end()
	sp.adopt([]telemetry.SpanEvent{{Name: "z", Start: time.Now()}})
	if tr.finish() != nil {
		t.Fatal("nil tracer returned spans")
	}
}
