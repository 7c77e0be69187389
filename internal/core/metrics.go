package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"depscope/internal/conc"
)

// This file implements the batched provider-metrics engine. The per-provider
// formulas of §2.2 are recursive set unions over the provider-dependency
// graph; computing them one provider at a time re-walks the same user lists
// for every query, which is the wrong asymptotic shape once every table and
// figure runner asks for all providers of a snapshot. The engine instead
// computes C_p and I_p for *every* provider in one pass:
//
//  1. condense the (traversal-filtered) provider graph into strongly
//     connected components — mutually dependent providers share one
//     dependent-site set by definition;
//  2. propagate site bitsets through the condensation DAG sinks-first, with
//     copy-on-write sharing for pass-through components;
//  3. fan the per-level component work across a worker pool.
//
// Results are cached per traversal key. Graphs are immutable after NewGraph
// (nothing in the package mutates Sites, Providers or the indexes), so cache
// entries never need invalidation. The batch pass is the only fill strategy:
// the recursive set walks (ConcentrationSet, ImpactSet) remain the reference
// the property tests hold it against, not a code path queries take.

// MetricsEngine computes provider concentration |C_p| and impact |I_p| for
// all providers of a Graph in one batched pass and caches the result per
// TraversalOpts. The zero Workers value (or any value < 1) means GOMAXPROCS.
// A MetricsEngine is safe for concurrent use.
type MetricsEngine struct {
	g *Graph

	// initOnce guards init(): the universe (names, ids), the direct-user
	// rows and the reverse edges the propagation and the outage simulator
	// walk. Engines built by CompactGraph and ApplyDelta are born
	// initialized and consume it with a no-op.
	initOnce sync.Once
	names    []string       // provider id → name (every name a query can hit)
	ids      map[string]int // provider name → id
	edges    [][]metricEdge // edges[p] = providers depending on p
	// Direct-user site ids per provider, resolved once so propagation is
	// pure integer work shared by every traversal key and both metrics.
	baseAll  [][]int32 // third-party users of any class + private owners
	baseCrit [][]int32 // critical users + private owners
	// siteID assigns each site name a stable bitset index. Unlike the
	// Sites slice, ids are never reused or shifted: an engine carried
	// across deltas (ApplyDelta) keeps ids for removed sites and appends
	// fresh ones for additions, so retained bitsets stay comparable.
	siteID   map[string]int32
	nSiteIDs int // bitset width: ids handed out so far

	mu      sync.Mutex
	workers int
	cache   map[uint8]*metricsEntry
}

// metricEdge is one "provider `to` depends on the edge's source" link,
// annotated with the depending provider's service (the traversal filter of
// TraversalOpts applies to it) and whether any of its dependencies on the
// source is critical.
type metricEdge struct {
	to       int32
	svc      Service
	critical bool
}

// metricsEntry is one cached (TraversalOpts) result; once guards the
// propagation so concurrent first queries fill it exactly once. conc and imp
// are complete maps, immutable after once, so reads are lock-free.
type metricsEntry struct {
	once sync.Once
	conc map[string]int
	imp  map[string]int

	// ready flips after once's body completes, so ApplyDelta can tell a
	// fully built entry from one whose first fill is still in flight (the
	// fields above are unsafe to read until then).
	ready atomic.Bool

	// The propagation state (condensation, per-component site bitsets) is
	// retained so a later ApplyDelta can recompute only the components
	// reachable from touched names instead of re-propagating the whole DAG.
	// nil when the graph has no providers or no sites.
	stateConc *propState
	stateImp  *propState
}

// propState is the retained output of one propagate() pass: the filtered
// condensation and the per-component dependent-site sets. Immutable after
// publication; ApplyDelta patches a copy (sharing untouched bitsets).
type propState struct {
	comp    []int32   // name id → component
	members [][]int32 // component → member name ids
	succ    [][]int32 // component → successor components (always smaller ids)
	hasBase []bool    // component contributes direct users of its own
	sets    []bitset  // component → dependent-site bitset
	counts  []int     // component → popcount of sets
}

// NewMetricsEngine builds an engine over g with its own cache. Most callers
// should use Graph.Metrics(), which shares one engine (and thus one cache)
// per graph; a fresh engine is only useful to measure cold-cache cost.
func NewMetricsEngine(g *Graph, workers int) *MetricsEngine {
	return &MetricsEngine{g: g, workers: workers, cache: make(map[uint8]*metricsEntry)}
}

// SetWorkers bounds the propagation concurrency; values < 1 mean GOMAXPROCS.
func (e *MetricsEngine) SetWorkers(n int) {
	e.mu.Lock()
	e.workers = n
	e.mu.Unlock()
}

func (e *MetricsEngine) workerCount() int {
	e.mu.Lock()
	w := e.workers
	e.mu.Unlock()
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// Concentration returns |C_p| under opts.
func (e *MetricsEngine) Concentration(p string, opts TraversalOpts) int {
	return e.entry(opts).conc[p]
}

// Impact returns |I_p| under opts.
func (e *MetricsEngine) Impact(p string, opts TraversalOpts) int {
	return e.entry(opts).imp[p]
}

// Counts returns |C_p| and |I_p| for every provider under opts. The maps are
// shared cache state; callers must not mutate them.
func (e *MetricsEngine) Counts(opts TraversalOpts) (conc, imp map[string]int) {
	ent := e.entry(opts)
	return ent.conc, ent.imp
}

// viaBits folds TraversalOpts into the cache key. Only the canonical
// services (Resource included) participate in traversal; provider Service
// values outside AllServices never carry edges (NewGraph cannot produce
// them).
func viaBits(opts TraversalOpts) uint8 {
	var b uint8
	for _, svc := range AllServices {
		if opts.allows(svc) {
			b |= 1 << uint(svc)
		}
	}
	return b
}

func (e *MetricsEngine) entry(opts TraversalOpts) *metricsEntry {
	key := viaBits(opts)
	e.mu.Lock()
	ent, ok := e.cache[key]
	if !ok {
		ent = &metricsEntry{}
		e.cache[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		e.initOnce.Do(e.init)
		ent.conc, ent.stateConc = e.propagate(key, false)
		ent.imp, ent.stateImp = e.propagate(key, true)
		ent.ready.Store(true)
	})
	return ent
}

// init builds the provider universe — every name a query can return a
// non-zero count for: declared providers, third-party user indexes,
// private-infrastructure nodes and depended-upon names — then resolves the
// per-name direct-user site lists and the reverse dependency edges shared by
// every traversal key, the state the batch propagation and the outage
// simulator walk.
func (e *MetricsEngine) init() {
	g := e.g
	e.ids = make(map[string]int)
	add := func(name string) {
		if _, ok := e.ids[name]; !ok {
			e.ids[name] = len(e.names)
			e.names = append(e.names, name)
		}
	}
	for name := range g.Providers {
		add(name)
	}
	for _, svcUsers := range g.usersOf {
		for name := range svcUsers {
			add(name)
		}
	}
	for name := range g.privateUsersOf {
		add(name)
	}
	for name := range g.providerUsersOf {
		add(name)
	}

	e.siteID = make(map[string]int32, len(g.Sites))
	for i, s := range g.Sites {
		if _, ok := e.siteID[s.Name]; !ok {
			e.siteID[s.Name] = int32(i)
		}
	}
	e.nSiteIDs = len(g.Sites)
	e.baseAll = make([][]int32, len(e.names))
	e.baseCrit = make([][]int32, len(e.names))
	for u, name := range e.names {
		e.baseAll[u], e.baseCrit[u] = siteBaseRows(g, name, e.siteID)
	}

	e.edges = make([][]metricEdge, len(e.names))
	for pname, users := range g.providerUsersOf {
		pid := e.ids[pname]
		idx := make(map[string]int, len(users))
		for _, k := range users {
			crit := providerDependsCritically(k, pname)
			if j, ok := idx[k.Name]; ok {
				if crit {
					e.edges[pid][j].critical = true
				}
				continue
			}
			idx[k.Name] = len(e.edges[pid])
			e.edges[pid] = append(e.edges[pid], metricEdge{
				to:       int32(e.ids[k.Name]),
				svc:      k.Service,
				critical: crit,
			})
		}
	}
}

// siteBaseRows resolves one name's direct-user site id lists — the init()
// inner loop, shared with the ApplyDelta patch path so both produce
// identical rows for a given graph.
func siteBaseRows(g *Graph, name string, siteID map[string]int32) (all, crit []int32) {
	for _, svcUsers := range g.usersOf {
		for _, s := range svcUsers[name] {
			all = append(all, siteID[s.Name])
		}
	}
	for _, svcUsers := range g.criticalUsersOf {
		for _, s := range svcUsers[name] {
			crit = append(crit, siteID[s.Name])
		}
	}
	for _, s := range g.privateUsersOf[name] {
		id := siteID[s.Name]
		all = append(all, id)
		crit = append(crit, id)
	}
	return all, crit
}

// providerDependsCritically reports whether k lists pname in a critical
// dependency — the edge filter the impact recursion applies.
func providerDependsCritically(k *Provider, pname string) bool {
	for _, d := range k.Deps {
		if !d.Class.Critical() {
			continue
		}
		for _, dep := range d.Providers {
			if dep == pname {
				return true
			}
		}
	}
	return false
}

// propagate computes one metric (concentration, or impact when critical) for
// every provider: SCC condensation of the filtered edges, then a sinks-first
// sweep unioning site bitsets up the DAG, parallel within each depth level.
// Alongside the count map it returns the propagation state it built, which
// the entry retains so ApplyDelta can patch instead of re-propagating.
func (e *MetricsEngine) propagate(via uint8, critical bool) (map[string]int, *propState) {
	n := len(e.names)
	// Degenerate inputs: with no providers or no sites every count is zero.
	// Return an empty map (lookups yield 0) instead of condensing an empty
	// graph and allocating a zero-width bitset view per component.
	if n == 0 || e.nSiteIDs == 0 {
		return map[string]int{}, nil
	}
	base := e.baseAll
	if critical {
		base = e.baseCrit
	}

	// Filtered adjacency for this traversal view.
	adj := make([][]int32, n)
	for u := 0; u < n; u++ {
		for _, ed := range e.edges[u] {
			if via&(1<<uint(ed.svc)) == 0 || (critical && !ed.critical) {
				continue
			}
			adj[u] = append(adj[u], ed.to)
		}
	}

	comp, ncomp := tarjanSCC(n, adj)
	members := make([][]int32, ncomp)
	for u := 0; u < n; u++ {
		members[comp[u]] = append(members[comp[u]], int32(u))
	}

	// Condensed successor lists. Components come out of Tarjan sinks-first:
	// every edge leaves a component toward a smaller component id, so a
	// simple ascending sweep sees successors before their predecessors.
	succ := make([][]int32, ncomp)
	mark := make([]int32, ncomp)
	for i := range mark {
		mark[i] = -1
	}
	for c := int32(0); c < int32(ncomp); c++ {
		for _, u := range members[c] {
			for _, v := range adj[u] {
				cv := comp[v]
				if cv != c && mark[cv] != c {
					mark[cv] = c
					succ[c] = append(succ[c], cv)
				}
			}
		}
	}

	// Does the component contribute any direct users of its own? Needed up
	// front so pass-through components can alias instead of copy.
	hasBase := make([]bool, ncomp)
	for u := 0; u < n; u++ {
		if len(base[u]) > 0 {
			hasBase[comp[u]] = true
		}
	}

	// Depth levels over the DAG: a component is ready once every successor's
	// set exists, so all components of one level union independently.
	level := make([]int32, ncomp)
	maxLevel := int32(0)
	for c := 0; c < ncomp; c++ {
		lv := int32(0)
		for _, sc := range succ[c] {
			if level[sc]+1 > lv {
				lv = level[sc] + 1
			}
		}
		level[c] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	byLevel := make([][]int32, maxLevel+1)
	for c := 0; c < ncomp; c++ {
		byLevel[level[c]] = append(byLevel[level[c]], int32(c))
	}

	nSites := e.nSiteIDs
	sets := make([]bitset, ncomp)
	counts := make([]int, ncomp)
	workers := e.workerCount()
	process := func(c int32) {
		ss := succ[c]
		if !hasBase[c] && len(ss) == 1 {
			// Copy-on-write: a pure pass-through component's set IS its
			// successor's set. Sets are never mutated after their level
			// completes, so sharing the slice is safe.
			sets[c] = sets[ss[0]]
			counts[c] = counts[ss[0]]
			return
		}
		bs := newBitset(nSites)
		for _, u := range members[c] {
			for _, id := range base[u] {
				bs.set(int(id))
			}
		}
		for _, sc := range ss {
			bs.unionWith(sets[sc])
		}
		sets[c] = bs
		counts[c] = bs.count()
	}
	for _, comps := range byLevel {
		cs := comps
		conc.Do(len(cs), workers, func(i int) { process(cs[i]) })
	}

	out := make(map[string]int, n)
	for u := 0; u < n; u++ {
		out[e.names[u]] = counts[comp[u]]
	}
	return out, &propState{
		comp:    comp,
		members: members,
		succ:    succ,
		hasBase: hasBase,
		sets:    sets,
		counts:  counts,
	}
}

// tarjanSCC condenses the directed graph into strongly connected components,
// iteratively (provider chains can be deep at scale). Components are emitted
// sinks-first: for every edge u→v across components, comp[v] < comp[u].
func tarjanSCC(n int, adj [][]int32) (comp []int32, ncomp int) {
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp = make([]int32, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack  []int32
		next   int32
		frames []sccFrame
	)
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames = append(frames[:0], sccFrame{v: int32(start)})
		index[start], low[start] = next, next
		next++
		stack = append(stack, int32(start))
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, sccFrame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(ncomp)
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

type sccFrame struct {
	v  int32
	ei int
}

// bitset is a fixed-width set over site indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[uint(i)/64] |= 1 << (uint(i) % 64) }

func (b bitset) has(i int) bool { return b[uint(i)/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) unionWith(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Metrics returns the graph's shared batched metrics engine, creating it on
// first use. All Concentration/Impact/TopProviders calls on the graph route
// through it, so the eleven table/figure runners share one cache.
func (g *Graph) Metrics() *MetricsEngine {
	g.metricsMu.Lock()
	defer g.metricsMu.Unlock()
	if g.metrics == nil {
		g.metrics = NewMetricsEngine(g, g.metricsWorkers)
	}
	return g.metrics
}

// SetMetricsWorkers bounds the metrics engine's concurrency (values < 1 mean
// GOMAXPROCS), wiring the analysis layer's Workers knob through to the
// engine.
func (g *Graph) SetMetricsWorkers(n int) {
	g.metricsMu.Lock()
	g.metricsWorkers = n
	eng := g.metrics
	g.metricsMu.Unlock()
	if eng != nil {
		eng.SetWorkers(n)
	}
}
