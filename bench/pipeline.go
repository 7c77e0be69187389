package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"depscope/internal/analysis"
	"depscope/internal/chain"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/incident"
	"depscope/internal/measure"
	"depscope/internal/membudget"
	"depscope/internal/telemetry"
)

// The in-process reference pipeline every workload runs during set-up: it
// produces what the program's outputs are checked against, and in a traced
// run it is where the per-layer numbers come from. Untraced, it calls
// analysis.Execute. Traced, it replays Execute's steps through each layer's
// public functions with a span around every call; tracing inside the
// program itself is out of scope here. A change that renames those
// functions must update the replay in the same change.

// pipelineOpts selects a workload's reference pipeline.
type pipelineOpts struct {
	Scale     int
	Seed      int64
	Chains    bool                 // measure resource-inclusion chains
	MemBudget uint64               // > 0: the streamed, columnar path under this budget
	Snapshots []ecosystem.Snapshot // nil means both
	// Preset is the incident scenario simulated once the graphs exist.
	Preset string
}

func (o pipelineOpts) compact() bool { return o.MemBudget > 0 }

func (o pipelineOpts) chainConfig() *chain.Config {
	if !o.Chains {
		return nil
	}
	cfg := chain.Default()
	return &cfg
}

func (o pipelineOpts) snapshots() []ecosystem.Snapshot {
	if o.Snapshots == nil {
		return []ecosystem.Snapshot{ecosystem.Y2016, ecosystem.Y2020}
	}
	return o.Snapshots
}

// reference is what one repetition of the reference pipeline produced.
type reference struct {
	Run      *analysis.Run
	Incident *incident.Report
	// Layers holds the per-layer numbers of a traced repetition.
	Layers map[string]float64
}

// passHists are the measurement passes' own duration histograms (the
// program records them on both pipeline paths); their sums split measure.
var passHists = map[string][]string{
	"measure.resolve_s":  {"measure_resolve_pass_seconds"},
	"measure.classify_s": {"measure_site_pass_seconds"},
	"measure.finish_s":   {"measure_interservice_pass_seconds", "measure_chain_pass_seconds"},
}

func histSums() map[string]float64 {
	out := make(map[string]float64)
	for metric, names := range passHists {
		for _, n := range names {
			out[metric] += telemetry.Default.Histogram(n, "", nil).Sum()
		}
	}
	return out
}

// spanLayers maps a per-layer metric onto the harness spans it sums.
var spanLayers = map[string][]string{
	"ecosystem.generate_s": {"ecosystem.generate"},
	"ecosystem.materialize_s": {"ecosystem.materialize", "ecosystem.chunked",
		"ecosystem.add_sites", "ecosystem.materialize_pages", "ecosystem.release_pages"},
	"measure.run_s": {"measure.run", "measure.new_stream", "measure.resolve_batch",
		"measure.seal", "measure.measure_batch", "measure.finish"},
	"analysis.build_graph_s": {"analysis.build_graph"},
	"core.metrics_fill_s":    {"core.metrics_fill"},
	"incident.simulate_s":    {"incident.simulate"},
}

// runReference runs the reference pipeline: generation, materialization,
// measurement and graph build for every snapshot, a cold fill of each
// graph's metrics engine, and one simulation of o.Preset. With a span from
// a tracer it records the traced replay below sp.
func runReference(ctx context.Context, o pipelineOpts, sp span) (*reference, error) {
	traced := sp.t != nil
	var before map[string]float64
	if traced {
		before = histSums()
	}
	var run *analysis.Run
	var err error
	if traced {
		run, err = replay(ctx, o, sp)
	} else {
		run, err = analysis.Execute(ctx, analysis.Options{
			Scale: o.Scale, Seed: o.Seed, Snapshots: o.Snapshots,
			Chains: o.chainConfig(), MemBudget: o.MemBudget,
		})
	}
	if err != nil {
		return nil, err
	}
	ref := &reference{Run: run}
	if traced {
		ref.Layers = make(map[string]float64)
		for metric, after := range histSums() {
			ref.Layers[metric] = after - before[metric]
		}
		probe := sp.child("bench.heap_probe")
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		probe.end()
		ref.Layers["core.graph_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	}
	fill := sp.child("core.metrics_fill")
	for _, sd := range []*analysis.SnapshotData{run.Y2016, run.Y2020} {
		if sd == nil {
			continue
		}
		sd.Graph.Metrics().Counts(core.AllIndirect())
		if sd.Compact != nil {
			sd.Compact.Metrics().Counts(core.AllIndirect())
		}
	}
	fill.end()
	sc, ok := incident.Preset(o.Preset)
	if !ok {
		return nil, fmt.Errorf("unknown incident preset %q", o.Preset)
	}
	sim := sp.child("incident.simulate")
	ref.Incident, err = analysis.SimulateIncident(ctx, run, sc)
	sim.end()
	if err != nil {
		return nil, err
	}
	return ref, nil
}

// replay is analysis.Execute spelled out through the layers' public
// functions, one span per call. The snapshots run concurrently on the
// default path and one after the other on the streamed path, as in Execute.
func replay(ctx context.Context, o pipelineOpts, sp span) (*analysis.Run, error) {
	gen := sp.child("ecosystem.generate")
	u, err := ecosystem.Generate(ecosystem.Options{Scale: o.Scale, Seed: o.Seed})
	gen.end()
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	snaps := o.snapshots()
	data := make([]*analysis.SnapshotData, len(snaps))
	errs := make([]error, len(snaps))
	one := func(i int) {
		ssp := sp.child("analysis.snapshot_" + snaps[i].String())
		defer ssp.end()
		if o.compact() {
			data[i], errs[i] = replayStreamed(ctx, u, snaps[i], o, workers, ssp)
		} else {
			data[i], errs[i] = replayDefault(ctx, u, snaps[i], o, workers, ssp)
		}
	}
	if o.compact() {
		for i := range snaps {
			one(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range snaps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				one(i)
			}(i)
		}
		wg.Wait()
	}
	run := &analysis.Run{Scale: o.Scale, Universe: u}
	for i, sd := range data {
		if errs[i] != nil {
			return nil, fmt.Errorf("snapshot %s: %w", snaps[i], errs[i])
		}
		if sd.Snapshot == ecosystem.Y2016 {
			run.Y2016 = sd
		} else {
			run.Y2020 = sd
		}
	}
	return run, nil
}

func measureConfig(w *ecosystem.World, o pipelineOpts, workers int) measure.Config {
	return measure.Config{
		Resolver: w.NewResolver(),
		Certs:    w.Certs,
		Pages:    w,
		CDNMap:   measure.CDNMap(w.CNAMEToCDN),
		Workers:  workers,
		Chains:   o.chainConfig(),
	}
}

func replayDefault(ctx context.Context, u *ecosystem.Universe, snap ecosystem.Snapshot, o pipelineOpts, workers int, sp span) (*analysis.SnapshotData, error) {
	m := sp.child("ecosystem.materialize")
	w := ecosystem.Materialize(u, snap)
	if cfg := o.chainConfig(); cfg != nil {
		ecosystem.MaterializeChains(u, w, *cfg)
	}
	m.end()
	ms := sp.child("measure.run")
	res, err := measure.Run(ctx, w.Sites, measureConfig(w, o, workers))
	ms.end()
	if err != nil {
		return nil, err
	}
	b := sp.child("analysis.build_graph")
	g := analysis.BuildGraph(res)
	g.SetMetricsWorkers(workers)
	b.end()
	return &analysis.SnapshotData{Snapshot: snap, World: w, Results: res, Graph: g}, nil
}

// streamBatch is analysis.Execute's default streaming batch length.
const streamBatch = 8192

func replayStreamed(ctx context.Context, u *ecosystem.Universe, snap ecosystem.Snapshot, o pipelineOpts, workers int, sp span) (*analysis.SnapshotData, error) {
	acct := membudget.New(o.MemBudget)
	timed := func(name string, f func()) {
		c := sp.child(name)
		f()
		c.end()
	}
	var c *ecosystem.Chunked
	timed("ecosystem.chunked", func() {
		c = ecosystem.NewChunked(u, snap)
		if cfg := o.chainConfig(); cfg != nil {
			c.EnableChains(*cfg)
		}
	})
	w := c.World()
	var st *measure.Stream
	var err error
	timed("measure.new_stream", func() { st, err = measure.NewStream(c.SiteNames(), measureConfig(w, o, workers)) })
	if err != nil {
		return nil, err
	}
	n := c.Len()
	for lo := 0; lo < n; lo += streamBatch {
		hi := min(lo+streamBatch, n)
		timed("ecosystem.add_sites", func() { c.AddSites(lo, hi) })
		timed("measure.resolve_batch", func() { err = st.ResolveBatch(ctx, lo, hi) })
		if err != nil {
			return nil, err
		}
		if err := acct.Check("zone materialization"); err != nil {
			return nil, err
		}
	}
	timed("measure.seal", st.Seal)
	for lo := 0; lo < n; lo += streamBatch {
		hi := min(lo+streamBatch, n)
		timed("ecosystem.materialize_pages", func() { c.MaterializePages(lo, hi) })
		timed("measure.measure_batch", func() { err = st.MeasureBatch(ctx, lo, hi) })
		if err != nil {
			return nil, err
		}
		timed("ecosystem.release_pages", func() { c.ReleasePages(lo, hi) })
		if err := acct.Check("site measurement"); err != nil {
			return nil, err
		}
	}
	var res *measure.Results
	timed("measure.finish", func() { res, err = st.Finish(ctx) })
	if err != nil {
		return nil, err
	}
	if err := acct.Check("inter-service resolution"); err != nil {
		return nil, err
	}
	var cg *core.CompactGraph
	timed("analysis.build_graph", func() {
		cg = analysis.BuildCompactGraph(res)
		cg.SetMetricsWorkers(workers)
	})
	var g *core.Graph
	timed("core.inflate", func() {
		g = cg.Inflate()
		g.SetMetricsWorkers(workers)
	})
	if err := acct.Check("graph build"); err != nil {
		return nil, err
	}
	return &analysis.SnapshotData{Snapshot: snap, World: w, Results: res, Graph: g, Compact: cg}, nil
}

// checkSnapshots verifies every measured snapshot covers the whole ranked
// list without a single per-site error, and returns the resolver's summed
// query and cache-hit counts.
func checkSnapshots(s *session, run *analysis.Run, nSnaps int) (queries, hits int64) {
	got := 0
	for _, sd := range []*analysis.SnapshotData{run.Y2016, run.Y2020} {
		if sd == nil {
			continue
		}
		got++
		s.check(len(sd.Results.Sites) == s.scale, "snapshot %s measured %d sites, want %d",
			sd.Snapshot, len(sd.Results.Sites), s.scale)
		d := sd.Results.Diagnostics
		s.check(d.TotalErrors() == 0 && len(d.Errors) == 0, "snapshot %s: %d per-site errors",
			sd.Snapshot, d.TotalErrors())
		queries += d.Resolver.Queries
		hits += d.Resolver.Hits
	}
	s.check(got == nSnaps, "measured %d snapshots, want %d", got, nSnaps)
	return queries, hits
}
