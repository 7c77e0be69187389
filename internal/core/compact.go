package core

import (
	"fmt"
	"sort"
	"sync"

	"depscope/internal/intern"
)

// This file implements the columnar graph backend. Graph is a pointer-and-
// map structure — map[string]*Provider, per-site Deps maps, string-keyed
// user indexes — which is the right shape for the report renderers but the
// wrong one at 1M sites: the resident set is dominated by map headers,
// string headers and per-site allocations, every one a pointer the GC must
// scan. CompactGraph stores the same graph as struct-of-arrays: every
// site/provider name is a dense uint32 into the process-wide intern.Dict,
// and all per-site variable-length data (dependency provider lists, private
// infrastructure, chain edges) lives in CSR-style offset+value arrays. Site
// row indexes double as the metrics engine's bitset indexes, so the batch
// propagation runs over the compact form directly — Metrics() materializes
// a MetricsEngine from the arrays without ever building a Graph.
//
// The pointer Graph remains the interchange form for renderers and
// experiments; Inflate() reconstructs it exactly (the analysis layer pins
// report bytes equal between the two paths). The compact form is what a
// 1M-site run holds while measuring, and what bytes/site accounting is
// reported over.

// classAbsent marks "site has no dependency entry for this service" in the
// per-service class column — distinct from ClassNone, which is a real
// measured class.
const classAbsent = 0xFF

// nSiteServices is the number of directly-measured per-site services
// (DNS/CDN/CA); chain edges are stored separately.
const nSiteServices = 3

// CompactGraph is the columnar form of one snapshot's dependency graph.
// Immutable after CompactBuilder.Build.
type CompactGraph struct {
	dict *intern.Dict

	// Site columns; the row index is the site's bitset index.
	siteNames []uint32 // dict ids
	siteRanks []int32

	// Per-service dependency columns: class byte (classAbsent = no entry)
	// plus a CSR of provider dict ids.
	siteClass [nSiteServices][]uint8
	depOff    [nSiteServices][]uint32
	depIDs    [nSiteServices][]uint32

	// Private-infrastructure CSR: (service, provider id) pairs per site,
	// already resolved against the provider maps at Build time.
	privOff []uint32
	privSvc []uint8
	privIDs []uint32

	// Chain-edge CSR: (vendor id, min depth) pairs per site, in measured
	// order (duplicates per vendor preserved, as on Site.Chains).
	chainOff   []uint32
	chainIDs   []uint32
	chainDepth []int32

	// Declared provider columns.
	provNames []uint32
	provSvc   []uint8
	// Provider inter-service dependencies, one class byte + CSR per
	// depended-on service (providers depend on DNS/CDN today; all four
	// slots exist so the layout never needs a migration).
	provClass  [4][]uint8
	provDepOff [4][]uint32
	provDepIDs [4][]uint32

	// Derived indexes for TopProviders filtering, built once on demand:
	// which names have public third-party users (bitmask per service,
	// Resource included) and which are private-infrastructure targets.
	idxOnce     sync.Once
	publicUsers map[uint32]uint8
	privUsed    map[uint32]bool
	provIdx     map[uint32]int

	metricsMu      sync.Mutex
	metricsWorkers int
	metrics        *MetricsEngine
}

// NSites returns the number of site rows.
func (cg *CompactGraph) NSites() int { return len(cg.siteNames) }

// NProviders returns the number of declared provider nodes.
func (cg *CompactGraph) NProviders() int { return len(cg.provNames) }

// SiteName returns site row i's name.
func (cg *CompactGraph) SiteName(i int) string { return cg.dict.Name(cg.siteNames[i]) }

// SiteRank returns site row i's rank.
func (cg *CompactGraph) SiteRank(i int) int { return int(cg.siteRanks[i]) }

// SiteClass returns site row i's dependency class for svc and whether the
// site has an entry for that service at all.
func (cg *CompactGraph) SiteClass(svc Service, i int) (DepClass, bool) {
	if int(svc) >= nSiteServices {
		return ClassNone, false
	}
	c := cg.siteClass[svc][i]
	if c == classAbsent {
		return ClassNone, false
	}
	return DepClass(c), true
}

// ClassCounts tallies sites per dependency class for svc, counting only
// sites that have an entry for the service — the same population the
// pointer graph's Deps maps define.
func (cg *CompactGraph) ClassCounts(svc Service) map[DepClass]int {
	out := make(map[DepClass]int)
	if int(svc) >= nSiteServices {
		return out
	}
	for _, c := range cg.siteClass[svc] {
		if c != classAbsent {
			out[DepClass(c)]++
		}
	}
	return out
}

// SetMetricsWorkers bounds the metrics engine's concurrency (< 1 means
// GOMAXPROCS), mirroring Graph.SetMetricsWorkers.
func (cg *CompactGraph) SetMetricsWorkers(n int) {
	cg.metricsMu.Lock()
	cg.metricsWorkers = n
	eng := cg.metrics
	cg.metricsMu.Unlock()
	if eng != nil {
		eng.SetWorkers(n)
	}
}

// Metrics returns the graph's batched metrics engine, built directly over
// the columnar arrays on first use: site rows are the bitset indexes, so
// the engine's init() never runs — names, bases and edges are materialized
// here and the SCC/propagation machinery consumes them as-is.
func (cg *CompactGraph) Metrics() *MetricsEngine {
	cg.metricsMu.Lock()
	defer cg.metricsMu.Unlock()
	if cg.metrics == nil {
		cg.metrics = cg.buildEngine(cg.metricsWorkers)
	}
	return cg.metrics
}

// Concentration returns |C_p| under opts, from the batched engine.
func (cg *CompactGraph) Concentration(p string, opts TraversalOpts) int {
	return cg.Metrics().Concentration(p, opts)
}

// Impact returns |I_p| under opts, from the batched engine.
func (cg *CompactGraph) Impact(p string, opts TraversalOpts) int {
	return cg.Metrics().Impact(p, opts)
}

// buildEngine materializes a MetricsEngine whose universe, direct-user site
// rows and reverse dependency edges come straight from the columns. The
// resulting counts are property-tested equal to a pointer-graph engine over
// Inflate()'s output.
func (cg *CompactGraph) buildEngine(workers int) *MetricsEngine {
	e := &MetricsEngine{workers: workers, cache: make(map[uint8]*metricsEntry)}

	// Universe: declared providers, third-party dependency targets, chain
	// vendors, private-infrastructure nodes, provider dependency targets —
	// the same membership rule as init (insertion order differs, which
	// only permutes internal ids, never counts).
	e.ids = make(map[string]int)
	add := func(id uint32) int {
		name := cg.dict.Name(id)
		u, ok := e.ids[name]
		if !ok {
			u = len(e.names)
			e.ids[name] = u
			e.names = append(e.names, name)
		}
		return u
	}
	for _, id := range cg.provNames {
		add(id)
	}
	for svc := 0; svc < nSiteServices; svc++ {
		for i, c := range cg.siteClass[svc] {
			if c == classAbsent || !DepClass(c).UsesThird() {
				continue
			}
			for _, id := range cg.depIDs[svc][cg.depOff[svc][i]:cg.depOff[svc][i+1]] {
				add(id)
			}
		}
	}
	for _, id := range cg.chainIDs {
		add(id)
	}
	for _, id := range cg.privIDs {
		add(id)
	}
	for svc := 0; svc < 4; svc++ {
		for p := range cg.provNames {
			c := cg.provClass[svc][p]
			if c == classAbsent || !DepClass(c).UsesThird() {
				continue
			}
			for _, id := range cg.provDepIDs[svc][cg.provDepOff[svc][p]:cg.provDepOff[svc][p+1]] {
				add(id)
			}
		}
	}

	// Direct-user site rows. Appending the same row twice is harmless (the
	// propagation sets bits), so no per-site dedup is needed.
	n := len(e.names)
	e.nSiteIDs = len(cg.siteNames)
	e.baseAll = make([][]int32, n)
	e.baseCrit = make([][]int32, n)
	for svc := 0; svc < nSiteServices; svc++ {
		for i, c := range cg.siteClass[svc] {
			cls := DepClass(c)
			if c == classAbsent || !cls.UsesThird() {
				continue
			}
			for _, id := range cg.depIDs[svc][cg.depOff[svc][i]:cg.depOff[svc][i+1]] {
				u := e.ids[cg.dict.Name(id)]
				e.baseAll[u] = append(e.baseAll[u], int32(i))
				if cls.Critical() {
					e.baseCrit[u] = append(e.baseCrit[u], int32(i))
				}
			}
		}
	}
	for i := 0; i < len(cg.siteNames); i++ {
		// Chain edges: every edge is critical by construction.
		for k := cg.chainOff[i]; k < cg.chainOff[i+1]; k++ {
			u := e.ids[cg.dict.Name(cg.chainIDs[k])]
			e.baseAll[u] = append(e.baseAll[u], int32(i))
			e.baseCrit[u] = append(e.baseCrit[u], int32(i))
		}
		// Private infrastructure: always a critical dependency of the owner.
		for k := cg.privOff[i]; k < cg.privOff[i+1]; k++ {
			u := e.ids[cg.dict.Name(cg.privIDs[k])]
			e.baseAll[u] = append(e.baseAll[u], int32(i))
			e.baseCrit[u] = append(e.baseCrit[u], int32(i))
		}
	}

	// Reverse dependency edges: for each declared provider k depending on
	// target t, an edge t → k carrying k's service and whether any of k's
	// dependencies on t is critical — the same (target, dependent) dedup
	// with critical-OR the pointer engine applies.
	e.edges = make([][]metricEdge, n)
	type edgeKey struct{ t, k int }
	seen := make(map[edgeKey]int)
	for p := range cg.provNames {
		kid := int32(e.ids[cg.dict.Name(cg.provNames[p])])
		ksvc := Service(cg.provSvc[p])
		for svc := 0; svc < 4; svc++ {
			c := cg.provClass[svc][p]
			cls := DepClass(c)
			if c == classAbsent || !cls.UsesThird() {
				continue
			}
			for _, id := range cg.provDepIDs[svc][cg.provDepOff[svc][p]:cg.provDepOff[svc][p+1]] {
				t := e.ids[cg.dict.Name(id)]
				key := edgeKey{t, p}
				if j, ok := seen[key]; ok {
					if cls.Critical() {
						e.edges[t][j].critical = true
					}
					continue
				}
				seen[key] = len(e.edges[t])
				e.edges[t] = append(e.edges[t], metricEdge{to: kid, svc: ksvc, critical: cls.Critical()})
			}
		}
	}

	// The engine is born initialized: consume the once so entry() goes
	// straight to propagation.
	e.initOnce.Do(func() {})
	return e
}

// buildIndexes derives the TopProviders filter indexes from the columns.
func (cg *CompactGraph) buildIndexes() {
	cg.publicUsers = make(map[uint32]uint8)
	cg.privUsed = make(map[uint32]bool)
	cg.provIdx = make(map[uint32]int, len(cg.provNames))
	for p, id := range cg.provNames {
		cg.provIdx[id] = p
	}
	for svc := 0; svc < nSiteServices; svc++ {
		for i, c := range cg.siteClass[svc] {
			if c == classAbsent || !DepClass(c).UsesThird() {
				continue
			}
			for _, id := range cg.depIDs[svc][cg.depOff[svc][i]:cg.depOff[svc][i+1]] {
				cg.publicUsers[id] |= 1 << uint(svc)
			}
		}
	}
	for _, id := range cg.chainIDs {
		cg.publicUsers[id] |= 1 << uint(Resource)
	}
	for _, id := range cg.privIDs {
		cg.privUsed[id] = true
	}
}

// TopProviders ranks the providers of svc by the chosen metric under opts,
// descending; n <= 0 returns all. It applies the same candidate collection
// and filtering as Graph.TopProviders: names used as a third party for svc
// plus declared providers of svc; a declared provider of a different
// service is excluded, as is a pure private-infrastructure node (private
// owners but no public users under any service).
func (cg *CompactGraph) TopProviders(svc Service, opts TraversalOpts, byImpact bool, n int) []ProviderStat {
	cg.idxOnce.Do(cg.buildIndexes)
	eng := cg.Metrics()
	var stats []ProviderStat
	seen := make(map[uint32]bool)
	collect := func(id uint32) {
		if seen[id] {
			return
		}
		seen[id] = true
		if p, ok := cg.provIdx[id]; ok && Service(cg.provSvc[p]) != svc {
			return
		}
		if cg.privUsed[id] && cg.publicUsers[id] == 0 {
			return
		}
		name := cg.dict.Name(id)
		stats = append(stats, ProviderStat{
			Name:          name,
			Service:       svc,
			Concentration: eng.Concentration(name, opts),
			Impact:        eng.Impact(name, opts),
		})
	}
	bit := uint8(1) << uint(svc)
	for id, mask := range cg.publicUsers {
		if mask&bit != 0 {
			collect(id)
		}
	}
	for p, id := range cg.provNames {
		if Service(cg.provSvc[p]) == svc {
			collect(id)
		}
	}
	sort.Slice(stats, func(i, j int) bool {
		a, b := stats[i], stats[j]
		ka, kb := a.Concentration, b.Concentration
		if byImpact {
			ka, kb = a.Impact, b.Impact
		}
		if ka != kb {
			return ka > kb
		}
		return a.Name < b.Name
	})
	if n > 0 && len(stats) > n {
		stats = stats[:n]
	}
	return stats
}

// Bytes returns the graph's columnar resident size: the sum of all column
// array footprints. Name string storage lives in the shared process-wide
// intern.Dict (one copy per distinct name, shared across snapshots and with
// the measurement layer) and is deliberately excluded — the benchmarks that
// compare representations measure retained heap deltas, which charge both
// forms their true shares.
func (cg *CompactGraph) Bytes() uint64 {
	b := uint64(cap(cg.siteNames))*4 + uint64(cap(cg.siteRanks))*4
	for svc := 0; svc < nSiteServices; svc++ {
		b += uint64(cap(cg.siteClass[svc]))
		b += uint64(cap(cg.depOff[svc]))*4 + uint64(cap(cg.depIDs[svc]))*4
	}
	b += uint64(cap(cg.privOff))*4 + uint64(cap(cg.privSvc)) + uint64(cap(cg.privIDs))*4
	b += uint64(cap(cg.chainOff))*4 + uint64(cap(cg.chainIDs))*4 + uint64(cap(cg.chainDepth))*4
	b += uint64(cap(cg.provNames))*4 + uint64(cap(cg.provSvc))
	for svc := 0; svc < 4; svc++ {
		b += uint64(cap(cg.provClass[svc]))
		b += uint64(cap(cg.provDepOff[svc]))*4 + uint64(cap(cg.provDepIDs[svc]))*4
	}
	return b
}

// Inflate reconstructs the pointer Graph. The output matches what
// analysis.BuildGraph would have produced from the same measurement
// results node-for-node — the analysis layer pins report bytes equal — so
// every renderer and experiment downstream of a compact run works
// unchanged.
func (cg *CompactGraph) Inflate() *Graph {
	sites := make([]*Site, len(cg.siteNames))
	for i := range cg.siteNames {
		s := &Site{
			Name: cg.dict.Name(cg.siteNames[i]),
			Rank: int(cg.siteRanks[i]),
			Deps: make(map[Service]Dep),
		}
		for svc := 0; svc < nSiteServices; svc++ {
			c := cg.siteClass[svc][i]
			if c == classAbsent {
				continue
			}
			var provs []string
			if lo, hi := cg.depOff[svc][i], cg.depOff[svc][i+1]; hi > lo {
				provs = make([]string, 0, hi-lo)
				for _, id := range cg.depIDs[svc][lo:hi] {
					provs = append(provs, cg.dict.Name(id))
				}
			}
			s.Deps[Service(svc)] = Dep{Class: DepClass(c), Providers: provs}
		}
		if lo, hi := cg.privOff[i], cg.privOff[i+1]; hi > lo {
			s.PrivateInfra = make(map[Service][]string)
			for k := lo; k < hi; k++ {
				svc := Service(cg.privSvc[k])
				s.PrivateInfra[svc] = append(s.PrivateInfra[svc], cg.dict.Name(cg.privIDs[k]))
			}
		}
		if lo, hi := cg.chainOff[i], cg.chainOff[i+1]; hi > lo {
			s.Chains = make([]ChainEdge, 0, hi-lo)
			for k := lo; k < hi; k++ {
				s.Chains = append(s.Chains, ChainEdge{
					Provider: cg.dict.Name(cg.chainIDs[k]),
					Depth:    int(cg.chainDepth[k]),
				})
			}
		}
		sites[i] = s
	}

	providers := make([]*Provider, len(cg.provNames))
	for p := range cg.provNames {
		node := &Provider{
			Name:    cg.dict.Name(cg.provNames[p]),
			Service: Service(cg.provSvc[p]),
			Deps:    make(map[Service]Dep),
		}
		for svc := 0; svc < 4; svc++ {
			c := cg.provClass[svc][p]
			if c == classAbsent {
				continue
			}
			var provs []string
			if lo, hi := cg.provDepOff[svc][p], cg.provDepOff[svc][p+1]; hi > lo {
				provs = make([]string, 0, hi-lo)
				for _, id := range cg.provDepIDs[svc][lo:hi] {
					provs = append(provs, cg.dict.Name(id))
				}
			}
			node.Deps[Service(svc)] = Dep{Class: DepClass(c), Providers: provs}
		}
		providers[p] = node
	}
	return NewGraph(sites, providers)
}

// CompactBuilder accumulates site rows (in rank order, typically one
// streaming batch at a time) and finalizes a CompactGraph once the
// measurement's cross-site maps are complete. Not safe for concurrent use;
// the streaming pipeline feeds it from one goroutine.
type CompactBuilder struct {
	g *CompactGraph

	// Private-infrastructure *candidates* per site: whether a candidate
	// becomes a node is only known once the inter-service passes finish, so
	// Build resolves them against an existence predicate.
	candOff []uint32
	candSvc []uint8
	candIDs []uint32

	open  bool // a site row is open
	built bool
}

// NewCompactBuilder creates an empty builder over the process-wide name
// table.
func NewCompactBuilder() *CompactBuilder {
	return &CompactBuilder{g: &CompactGraph{dict: intern.GlobalDict()}}
}

// closeRow finalizes the open site row's CSR offsets.
func (b *CompactBuilder) closeRow() {
	if !b.open {
		return
	}
	g := b.g
	for svc := 0; svc < nSiteServices; svc++ {
		g.depOff[svc] = append(g.depOff[svc], uint32(len(g.depIDs[svc])))
	}
	g.chainOff = append(g.chainOff, uint32(len(g.chainIDs)))
	b.candOff = append(b.candOff, uint32(len(b.candIDs)))
	b.open = false
}

// AddSite opens a new site row; subsequent SetDep/AddPrivateCandidate/
// AddChain calls apply to it until the next AddSite or Build.
func (b *CompactBuilder) AddSite(name string, rank int) {
	if b.built {
		panic("core: CompactBuilder used after Build")
	}
	b.closeRow()
	g := b.g
	if len(g.siteNames) == 0 {
		// First row: seed the offset-0 sentinel of every CSR.
		for svc := 0; svc < nSiteServices; svc++ {
			g.depOff[svc] = append(g.depOff[svc], 0)
		}
		g.chainOff = append(g.chainOff, 0)
		b.candOff = append(b.candOff, 0)
	}
	g.siteNames = append(g.siteNames, g.dict.ID(name))
	g.siteRanks = append(g.siteRanks, int32(rank))
	for svc := 0; svc < nSiteServices; svc++ {
		g.siteClass[svc] = append(g.siteClass[svc], classAbsent)
	}
	b.open = true
}

// SetDep records the open site's dependency entry for svc.
func (b *CompactBuilder) SetDep(svc Service, class DepClass, providers []string) {
	if !b.open {
		panic("core: SetDep before AddSite")
	}
	if int(svc) >= nSiteServices {
		panic("core: SetDep for non-site service " + svc.String())
	}
	g := b.g
	row := len(g.siteNames) - 1
	if g.siteClass[svc][row] != classAbsent {
		panic("core: duplicate SetDep for " + svc.String())
	}
	g.siteClass[svc][row] = uint8(class)
	for _, p := range providers {
		g.depIDs[svc] = append(g.depIDs[svc], g.dict.ID(p))
	}
}

// AddPrivateCandidate records a private-infrastructure candidate for the
// open site; Build keeps it only if the measurement resolved the named node
// (the same condition BuildGraph applies via the results maps).
func (b *CompactBuilder) AddPrivateCandidate(svc Service, name string) {
	if !b.open {
		panic("core: AddPrivateCandidate before AddSite")
	}
	b.candSvc = append(b.candSvc, uint8(svc))
	b.candIDs = append(b.candIDs, b.g.dict.ID(name))
}

// AddChain records one chain edge (vendor, min depth) for the open site.
func (b *CompactBuilder) AddChain(provider string, depth int) {
	if !b.open {
		panic("core: AddChain before AddSite")
	}
	g := b.g
	g.chainIDs = append(g.chainIDs, g.dict.ID(provider))
	g.chainDepth = append(g.chainDepth, int32(depth))
}

// Build finalizes the graph: declared provider nodes are laid out into the
// provider columns, and each site's private-infrastructure candidates are
// resolved through exists (service, name) — candidates for nodes the
// measurement never materialized are dropped, exactly as BuildGraph drops
// them by consulting the results maps. The builder is unusable afterwards.
func (b *CompactBuilder) Build(providers []*Provider, exists func(Service, string) bool) *CompactGraph {
	if b.built {
		panic("core: CompactBuilder.Build called twice")
	}
	b.closeRow()
	b.built = true
	g := b.g
	if len(g.siteNames) == 0 {
		// No rows were ever opened; seed empty CSRs so slicing stays valid.
		for svc := 0; svc < nSiteServices; svc++ {
			g.depOff[svc] = []uint32{0}
		}
		g.chainOff = []uint32{0}
		b.candOff = []uint32{0}
	}

	// Resolve private-infrastructure candidates into the final CSR.
	g.privOff = make([]uint32, 1, len(g.siteNames)+1)
	for i := 0; i < len(g.siteNames); i++ {
		for k := b.candOff[i]; k < b.candOff[i+1]; k++ {
			svc := Service(b.candSvc[k])
			name := g.dict.Name(b.candIDs[k])
			if !exists(svc, name) {
				continue
			}
			g.privSvc = append(g.privSvc, b.candSvc[k])
			g.privIDs = append(g.privIDs, b.candIDs[k])
		}
		g.privOff = append(g.privOff, uint32(len(g.privIDs)))
	}
	b.candOff, b.candSvc, b.candIDs = nil, nil, nil

	// Provider columns.
	for svc := 0; svc < 4; svc++ {
		g.provClass[svc] = make([]uint8, 0, len(providers))
		g.provDepOff[svc] = append(g.provDepOff[svc], 0)
	}
	seen := make(map[string]bool, len(providers))
	for _, p := range providers {
		if seen[p.Name] {
			panic(fmt.Sprintf("core: duplicate provider %q in CompactBuilder.Build", p.Name))
		}
		seen[p.Name] = true
		g.provNames = append(g.provNames, g.dict.ID(p.Name))
		g.provSvc = append(g.provSvc, uint8(p.Service))
		for svc := 0; svc < 4; svc++ {
			d, ok := p.Deps[Service(svc)]
			if !ok {
				g.provClass[svc] = append(g.provClass[svc], classAbsent)
			} else {
				g.provClass[svc] = append(g.provClass[svc], uint8(d.Class))
				for _, dep := range d.Providers {
					g.provDepIDs[svc] = append(g.provDepIDs[svc], g.dict.ID(dep))
				}
			}
			g.provDepOff[svc] = append(g.provDepOff[svc], uint32(len(g.provDepIDs[svc])))
		}
	}
	return g
}
