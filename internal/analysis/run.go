// Package analysis orchestrates full experiment runs: it generates the
// synthetic universe, materializes both snapshots, executes the measurement
// pipeline, builds the dependency graphs, and exposes one runner per table
// and figure of the paper's evaluation (see DESIGN.md §4 for the index).
package analysis

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"depscope/internal/chain"
	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
	"depscope/internal/membudget"
	"depscope/internal/telemetry"
)

// SnapshotData bundles everything derived for one snapshot.
type SnapshotData struct {
	Snapshot ecosystem.Snapshot
	// World keeps every zone and certificate of the snapshot resident; an
	// Execute run has released its landing pages batch by batch.
	World   *ecosystem.World
	Results *measure.Results
	Graph   *core.Graph
	// Compact is the columnar graph representation, set on every Execute
	// run. Graph is inflated from it, and every report, view, ranking and
	// site set reads Graph and its metrics engine; no program path reads
	// Compact, which is kept for the benchmark harness and the tests.
	// Callers that assemble SnapshotData themselves may leave it nil.
	Compact *core.CompactGraph
}

// Run is a complete two-snapshot experiment run.
type Run struct {
	Scale    int
	Universe *ecosystem.Universe
	Y2016    *SnapshotData
	Y2020    *SnapshotData
}

// Options configures Execute.
type Options struct {
	// Scale is the ranked-list length (paper: 100000).
	Scale int
	// Seed drives the generator.
	Seed int64
	// Workers bounds measurement and metrics concurrency; any value < 1
	// means GOMAXPROCS.
	Workers int
	// ConcentrationThreshold overrides the §3.1 cutoff; 0 means 50.
	ConcentrationThreshold int
	// ErrorPolicy is handed to the measurement pipeline: conc.FailFast (the
	// zero value) aborts a snapshot on the first per-site error, conc.Collect
	// tolerates failures and reports them in Results.Diagnostics.
	ErrorPolicy conc.Policy
	// Snapshots limits the run; nil means both.
	Snapshots []ecosystem.Snapshot
	// CheckpointPath, when non-empty, enables checkpointed measurement: each
	// snapshot's progress is saved to "<path>.<year>" (atomic tmp+rename) as
	// the run advances. With Resume, a checkpoint already at that path is
	// loaded first and still-valid per-site results are reused instead of
	// re-measured — after an interrupt, or after editing the universe (only
	// sites whose content fingerprints changed are re-measured).
	CheckpointPath string
	// Resume requires CheckpointPath; the checkpoint file must exist.
	Resume bool
	// Progress, when set, receives one line per phase (generation, per-
	// snapshot materialization and measurement). Execute serializes the
	// calls, so a callback writing to a plain buffer is race-free even
	// though the snapshots are measured concurrently.
	Progress func(format string, args ...any)
	// Chains, when non-nil and enabled, materializes transitive
	// resource-inclusion chains into each snapshot's pages and runs the
	// chain classifier stage, adding implicit-trust edges and vendor
	// provider nodes to the graphs. Nil leaves every artifact (results,
	// graphs, reports, checkpoints) byte-identical to a chains-off run.
	Chains *chain.Config
	// MemBudget, in bytes, soft-limits live heap: checked at batch
	// boundaries, a run that stays over budget after GC fails fast with
	// membudget.BudgetError. A budgeted run measures its snapshots one after
	// the other, so only one snapshot's working set is live at a time; 0
	// means unlimited, with the snapshots measured concurrently.
	MemBudget uint64
	// BatchSize is the streaming batch length in sites: each snapshot's
	// sites are materialized and measured in batches of this many, and a
	// batch's landing pages are released once it is measured. Values < 1
	// mean 8192. Reports do not depend on it.
	BatchSize int
}

// defaultBatchSize is the streaming batch length when Options.BatchSize is
// unset: big enough to amortize per-batch overheads, small enough that one
// batch's landing pages are memory noise.
const defaultBatchSize = 8192

// Execute generates, materializes and measures both snapshots.
func Execute(ctx context.Context, opts Options) (*Run, error) {
	if opts.Scale <= 0 {
		return nil, fmt.Errorf("analysis: scale must be positive")
	}
	if opts.Resume && opts.CheckpointPath == "" {
		return nil, fmt.Errorf("analysis: Resume requires CheckpointPath")
	}
	if opts.BatchSize < 1 {
		opts.BatchSize = defaultBatchSize
	}
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	defer telemetry.StartSpan("analysis.execute").End()
	genSpan := telemetry.StartSpan("analysis.generate")
	u, err := ecosystem.Generate(ecosystem.Options{Scale: opts.Scale, Seed: opts.Seed})
	genSpan.End()
	if err != nil {
		return nil, err
	}
	run := &Run{Scale: opts.Scale, Universe: u}
	// The two snapshot goroutines below report progress concurrently;
	// serialize the user callback so it needs no locking of its own.
	var progressMu sync.Mutex
	userProgress := opts.Progress
	progress := func(format string, args ...any) {
		if userProgress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		userProgress(format, args...)
	}
	progress("generated universe: %d sites, %d providers", len(u.Sites), len(u.Providers))
	snaps := opts.Snapshots
	if snaps == nil {
		snaps = []ecosystem.Snapshot{ecosystem.Y2016, ecosystem.Y2020}
	}
	// The snapshots are independent: fan them out over the shared pool (one
	// worker per snapshot — the measurement itself parallelizes inside).
	// Under a memory budget they instead run one after the other, so only
	// one snapshot's working set is live at a time and the budget is
	// meaningful.
	snapWorkers := len(snaps)
	if opts.MemBudget > 0 {
		snapWorkers = 1
	}
	measured := make([]*SnapshotData, len(snaps))
	err = conc.ForEach(ctx, len(snaps), snapWorkers, conc.FailFast, func(ctx context.Context, i int) error {
		sd, err := measureSnapshot(ctx, u, snaps[i], opts)
		if err != nil {
			return fmt.Errorf("analysis: snapshot %s: %w", snaps[i], err)
		}
		progress("measured %s: %d sites, %d distinct nameserver domains",
			snaps[i], len(sd.Results.Sites), len(sd.Results.NSConcentration))
		measured[i] = sd
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, sd := range measured {
		if sd.Snapshot == ecosystem.Y2016 {
			run.Y2016 = sd
		} else {
			run.Y2020 = sd
		}
	}
	return run, nil
}

// measureSnapshot is the one per-snapshot driver: site zones and landing
// pages are materialized in Options.BatchSize batches, pages are released
// after their batch is measured, the memory budget is checked at batch
// boundaries, and the graph is built columnar first (the pointer Graph is
// inflated from it). Every batch's zones are added before any is resolved,
// the order Materialize uses: zones stay resident for the whole run anyway,
// and the site fingerprints a checkpoint is keyed on hash the complete world
// surface.
func measureSnapshot(ctx context.Context, u *ecosystem.Universe, snap ecosystem.Snapshot, opts Options) (*SnapshotData, error) {
	defer telemetry.StartSpan("analysis.measure_snapshot").End()
	acct := membudget.New(opts.MemBudget)
	c := ecosystem.NewChunked(u, snap)
	if opts.Chains != nil && opts.Chains.Enabled() {
		c.EnableChains(*opts.Chains)
	}
	w := c.World()
	n := c.Len()
	eachBatch := func(f func(lo, hi int) error) error {
		for lo := 0; lo < n; lo += opts.BatchSize {
			if err := f(lo, min(lo+opts.BatchSize, n)); err != nil {
				return err
			}
		}
		return nil
	}

	err := eachBatch(func(lo, hi int) error {
		c.AddSites(lo, hi)
		return acct.Check("zone materialization")
	})
	if err != nil {
		return nil, err
	}
	cfg := measureConfig(w, opts)
	if opts.CheckpointPath != "" {
		path := fmt.Sprintf("%s.%s", opts.CheckpointPath, snap)
		cfg.CheckpointLabel = snap.String()
		cfg.Fingerprints = c.SiteFingerprints(opts.BatchSize)
		cfg.OnCheckpoint = func(cp *measure.Checkpoint) error {
			return measure.SaveCheckpoint(path, cp)
		}
		if opts.Resume {
			cp, err := measure.LoadCheckpoint(path)
			if err != nil {
				return nil, fmt.Errorf("resume: %w", err)
			}
			cfg.Checkpoint = cp
		}
	}
	st, err := measure.NewStream(c.SiteNames(), cfg)
	if err != nil {
		return nil, err
	}
	err = eachBatch(func(lo, hi int) error {
		if err := st.ResolveBatch(ctx, lo, hi); err != nil {
			return err
		}
		return acct.Check("name resolution")
	})
	if err != nil {
		return nil, err
	}
	st.Seal()
	err = eachBatch(func(lo, hi int) error {
		c.MaterializePages(lo, hi)
		if err := st.MeasureBatch(ctx, lo, hi); err != nil {
			return err
		}
		c.ReleasePages(lo, hi)
		return acct.Check("site measurement")
	})
	if err != nil {
		return nil, err
	}
	res, err := st.Finish(ctx)
	if err != nil {
		return nil, err
	}
	if err := acct.Check("inter-service resolution"); err != nil {
		return nil, err
	}
	cg := BuildCompactGraph(res)
	cg.SetMetricsWorkers(opts.Workers)
	g := cg.Inflate()
	g.SetMetricsWorkers(opts.Workers)
	if err := acct.Check("graph build"); err != nil {
		return nil, err
	}
	return &SnapshotData{
		Snapshot: snap,
		World:    w,
		Results:  res,
		Graph:    g,
		Compact:  cg,
	}, nil
}

// measureConfig is the measurement configuration of one snapshot's world.
func measureConfig(w *ecosystem.World, opts Options) measure.Config {
	return measure.Config{
		Resolver:               w.NewResolver(),
		Certs:                  w.Certs,
		Pages:                  w,
		CDNMap:                 measure.CDNMap(w.CNAMEToCDN),
		Workers:                opts.Workers,
		ConcentrationThreshold: opts.ConcentrationThreshold,
		ErrorPolicy:            opts.ErrorPolicy,
		Chains:                 opts.Chains,
	}
}

// BuildCompactGraph converts measurement results into the columnar graph,
// mirroring BuildGraph edge for edge: the property tests pin that the two
// representations score identically and inflate to equal pointer graphs.
func BuildCompactGraph(res *measure.Results) *core.CompactGraph {
	b := core.NewCompactBuilder()
	for i := range res.Sites {
		sr := &res.Sites[i]
		b.AddSite(sr.Site, sr.Rank)
		b.SetDep(core.DNS, sr.DNS.Class, sr.DNS.Providers)
		if sr.CDN.UsesCDN {
			b.SetDep(core.CDN, sr.CDN.Class, sr.CDN.Third)
		}
		if sr.CA.HTTPS {
			var provs []string
			if sr.CA.Third {
				provs = []string{sr.CA.CAName}
			}
			b.SetDep(core.CA, sr.CA.Class, provs)
		}
		for _, pc := range sr.CDN.PrivateCDNs {
			b.AddPrivateCandidate(core.CDN, pc)
		}
		if sr.CA.HTTPS && !sr.CA.Third && sr.CA.CAName != "" {
			b.AddPrivateCandidate(core.CA, sr.CA.CAName)
		}
		for _, cr := range sr.Chains {
			b.AddChain(cr.Provider, cr.Depth)
		}
	}
	exists := func(svc core.Service, name string) bool {
		switch svc {
		case core.CDN:
			_, ok := res.CDNToDNS[name]
			return ok
		case core.CA:
			_, ok := res.CAToDNS[name]
			return ok
		}
		return false
	}
	return b.Build(buildProviderNodes(res), exists)
}

// BuildGraph converts measurement results into the core dependency graph.
func BuildGraph(res *measure.Results) *core.Graph {
	var sites []*core.Site
	for i := range res.Sites {
		sr := &res.Sites[i]
		node := &core.Site{
			Name: sr.Site,
			Rank: sr.Rank,
			Deps: make(map[core.Service]core.Dep),
		}
		node.Deps[core.DNS] = core.Dep{Class: sr.DNS.Class, Providers: sr.DNS.Providers}
		if sr.CDN.UsesCDN {
			node.Deps[core.CDN] = core.Dep{Class: sr.CDN.Class, Providers: sr.CDN.Third}
		}
		if sr.CA.HTTPS {
			var caDep core.Dep
			caDep.Class = sr.CA.Class
			if sr.CA.Third {
				caDep.Providers = []string{sr.CA.CAName}
			}
			node.Deps[core.CA] = caDep
		}
		// Private infrastructure with its own measured dependency structure.
		for _, pc := range sr.CDN.PrivateCDNs {
			if _, ok := res.CDNToDNS[pc]; ok {
				if node.PrivateInfra == nil {
					node.PrivateInfra = make(map[core.Service][]string)
				}
				node.PrivateInfra[core.CDN] = append(node.PrivateInfra[core.CDN], pc)
			}
		}
		if sr.CA.HTTPS && !sr.CA.Third && sr.CA.CAName != "" {
			if _, ok := res.CAToDNS[sr.CA.CAName]; ok {
				if node.PrivateInfra == nil {
					node.PrivateInfra = make(map[core.Service][]string)
				}
				node.PrivateInfra[core.CA] = append(node.PrivateInfra[core.CA], sr.CA.CAName)
			}
		}
		// Implicit-trust edges (chain runs only; nil otherwise).
		for _, cr := range sr.Chains {
			node.Chains = append(node.Chains, core.ChainEdge{Provider: cr.Provider, Depth: cr.Depth})
		}
		sites = append(sites, node)
	}

	return core.NewGraph(sites, buildProviderNodes(res))
}

// buildProviderNodes derives the provider-side node set from the measured
// inter-service arrangements. Shared between BuildGraph and
// BuildCompactGraph so the two representations cannot drift in which
// providers exist or what they depend on. The slice is name-sorted for a
// deterministic columnar layout.
func buildProviderNodes(res *measure.Results) []*core.Provider {
	providerNodes := make(map[string]*core.Provider)
	ensure := func(name string, svc core.Service) *core.Provider {
		p, ok := providerNodes[name]
		if !ok {
			p = &core.Provider{Name: name, Service: svc, Deps: make(map[core.Service]core.Dep)}
			providerNodes[name] = p
		}
		return p
	}
	for name, dep := range res.CDNToDNS {
		p := ensure(name, core.CDN)
		p.Deps[core.DNS] = core.Dep{Class: dep.Class, Providers: dep.Deps}
	}
	for name, dep := range res.CAToDNS {
		p := ensure(name, core.CA)
		p.Deps[core.DNS] = core.Dep{Class: dep.Class, Providers: dep.Deps}
	}
	for name, dep := range res.CAToCDN {
		p := ensure(name, core.CA)
		if dep.Class != core.ClassNone {
			p.Deps[core.CDN] = core.Dep{Class: dep.Class, Providers: dep.Deps}
		}
	}
	// Chain vendors become first-class Resource providers with their own
	// measured DNS/CDN arrangements, so outages cascade through them.
	for name, dep := range res.ResourceToDNS {
		p := ensure(name, core.Resource)
		p.Deps[core.DNS] = core.Dep{Class: dep.Class, Providers: dep.Deps}
	}
	for name, dep := range res.ResourceToCDN {
		p := ensure(name, core.Resource)
		if dep.Class != core.ClassNone {
			p.Deps[core.CDN] = core.Dep{Class: dep.Class, Providers: dep.Deps}
		}
	}
	providers := make([]*core.Provider, 0, len(providerNodes))
	for _, p := range providerNodes {
		providers = append(providers, p)
	}
	sort.Slice(providers, func(i, j int) bool { return providers[i].Name < providers[j].Name })
	return providers
}
