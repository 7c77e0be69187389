package core

import (
	"fmt"
	"slices"
	"sync"

	"depscope/internal/intern"
)

// This file implements the columnar graph backend. Graph is a pointer-and-
// map structure — map[string]*Provider, per-site Deps maps — which is the
// right shape for the report renderers but the wrong one at 1M sites: the resident set is dominated by map headers,
// string headers and per-site allocations, every one a pointer the GC must
// scan. CompactGraph stores the same graph as struct-of-arrays: every
// site/provider name is a dense uint32 into the process-wide intern.Dict,
// and all per-site variable-length data (dependency provider lists, private
// infrastructure, chain edges) lives in CSR-style offset+value arrays. Site
// row indexes double as the metrics engine's bitset indexes, so the batch
// propagation runs over the compact form directly — Metrics() feeds the
// columns to the engine's one direct-user table builder (table.go) without
// ever building a Graph.
//
// The pointer Graph remains the interchange form for renderers, experiments
// and serving, and its own metrics engine answers every C_p/I_p query about
// a snapshot — counts, rankings and site sets alike. Inflate() reconstructs
// it exactly (the analysis layer pins report bytes equal between the two
// paths). The compact form is what a 1M-site run holds while measuring, and
// what bytes/site accounting is reported over; its engine (Metrics) is the
// columnar propagation the property tests hold equal to the pointer one.

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

	metricsMu      sync.Mutex
	metricsWorkers int
	metrics        *MetricsEngine
}

// NSites returns the number of site rows.
func (cg *CompactGraph) NSites() int { return len(cg.siteNames) }

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

// buildEngine materializes a MetricsEngine whose direct-user table comes
// straight from the columns, through the same builder init feeds from a
// pointer graph; site rows are the bitset indexes. The resulting counts are
// property-tested equal to a pointer-graph engine over Inflate()'s output.
func (cg *CompactGraph) buildEngine(workers int) *MetricsEngine {
	e := &MetricsEngine{workers: workers, cache: make(map[uint8]*metricsEntry)}
	e.nSiteIDs = len(cg.siteNames)
	name := cg.dict.Name
	e.buildTable(func(t tableFeed) {
		for i := range cg.siteNames {
			site := int32(i)
			for svc := 0; svc < nSiteServices; svc++ {
				c := cg.siteClass[svc][i]
				if c == classAbsent {
					continue
				}
				if k, ok := depUse(Service(svc), DepClass(c)); ok {
					for _, id := range cg.depIDs[svc][cg.depOff[svc][i]:cg.depOff[svc][i+1]] {
						t.use(site, name(id), k)
					}
				}
			}
			for _, id := range cg.privIDs[cg.privOff[i]:cg.privOff[i+1]] {
				t.use(site, name(id), privateUse)
			}
			// Chain edges keep per-depth duplicates; each vendor is one use.
			chain := cg.chainIDs[cg.chainOff[i]:cg.chainOff[i+1]]
			for k, id := range chain {
				if !slices.Contains(chain[:k], id) {
					t.use(site, name(id), chainUse)
				}
			}
		}
		for p, pid := range cg.provNames {
			t.provider(name(pid))
			for svc := 0; svc < 4; svc++ {
				c := cg.provClass[svc][p]
				if c == classAbsent {
					continue
				}
				for _, id := range cg.provDepIDs[svc][cg.provDepOff[svc][p]:cg.provDepOff[svc][p+1]] {
					t.dependency(name(pid), Service(cg.provSvc[p]), DepClass(c), name(id))
				}
			}
		}
	})

	// The engine is born initialized: consume the once so entry() goes
	// straight to propagation.
	e.initOnce.Do(func() {})
	return e
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
	g.privOff = append(g.privOff, uint32(len(g.privIDs)))
	b.open = false
}

// AddSite opens a new site row; subsequent SetDep/AddPrivate/AddChain
// calls apply to it until the next AddSite or Build.
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
		g.privOff = append(g.privOff, 0)
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

// AddPrivate records a private-infrastructure node the open site depends
// on (Site.PrivateInfra).
func (b *CompactBuilder) AddPrivate(svc Service, name string) {
	if !b.open {
		panic("core: AddPrivate before AddSite")
	}
	g := b.g
	g.privSvc = append(g.privSvc, uint8(svc))
	g.privIDs = append(g.privIDs, g.dict.ID(name))
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
// provider columns. The builder is unusable afterwards.
func (b *CompactBuilder) Build(providers []*Provider) *CompactGraph {
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
		g.privOff = []uint32{0}
	}

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
