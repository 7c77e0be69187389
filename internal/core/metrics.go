package core

import (
	"runtime"
	"slices"
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
//  2. propagate site sets (rowSet, siteset.go) through the condensation
//     DAG sinks-first, with copy-on-write sharing for pass-through ones;
//  3. fan the per-level component work across a worker pool.
//
// Results are cached per traversal key. Graphs are immutable after NewGraph
// (nothing in the package mutates Sites or Providers), so cache entries
// never need invalidation. The engine is the graph's one C_p/I_p
// computation and holds its one direct-user table (table.go): counts and
// rankings read the retained per-component sets' sizes, the ranking
// candidates read the table's user counts, and the site sets (ImpactSet,
// and C_p's for the tests) walk their members. The recursive set formulas
// survive only as the test oracle the property tests hold it against.

// MetricsEngine computes provider concentration |C_p| and impact |I_p| for
// all providers of a Graph in one batched pass and caches the result per
// TraversalOpts. The zero Workers value (or any value < 1) means GOMAXPROCS.
// A MetricsEngine is safe for concurrent use.
type MetricsEngine struct {
	g *Graph

	// initOnce guards init(): the direct-user table (table.go) — the
	// universe (names, ids), the direct-user rows, the user counts and the
	// reverse edges the propagation and the outage simulator walk. Engines
	// built by CompactGraph and ApplyDelta are born initialized and consume
	// it with a no-op.
	initOnce sync.Once
	names    []string       // provider id → name (every name a query can hit)
	ids      map[string]int // provider name → id
	edges    [][]metricEdge // edges[p] = providers depending on p
	// Direct-user site ids per provider, so propagation is pure integer
	// work shared by every traversal key and both metrics.
	baseAll  [][]int32    // third-party users of any class + private owners
	baseCrit [][]int32    // critical users + private owners
	users    []userCounts // per-name user counts, per service
	// siteID assigns each site name a stable set id. Unlike the Sites
	// slice, ids are never reused or shifted: an engine carried across
	// deltas (ApplyDelta) keeps ids for removed sites and appends fresh
	// ones for additions, so retained sets stay comparable. siteNames is
	// its inverse (set id → site name).
	siteID    map[string]int32
	siteNames []string
	nSiteIDs  int // id space: ids handed out so far

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
// propagation so concurrent first queries fill it exactly once. The states
// are immutable after once, so reads are lock-free.
type metricsEntry struct {
	once sync.Once

	// ready flips after once's body completes, so ApplyDelta can tell a
	// fully built entry from one whose first fill is still in flight (the
	// fields below are unsafe to read until then).
	ready atomic.Bool

	// Each metric's propagation state (condensation, per-component site
	// sets): a count is a set's size, and ApplyDelta recomputes only the
	// components reachable from touched names instead of re-propagating
	// the whole DAG. nil when the graph has no providers or no sites.
	stateConc *propState
	stateImp  *propState
}

// propState is the retained output of one propagate() pass: the filtered
// condensation and the per-component dependent-site sets. Immutable after
// publication; ApplyDelta patches a copy (sharing untouched sets).
type propState struct {
	comp    []int32   // name id → component
	members [][]int32 // component → member name ids
	succ    [][]int32 // component → successor components (always smaller ids)
	sets    []rowSet  // component → dependent-site set
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
	return e.setOf(e.entry(opts).stateConc, p).n
}

// Impact returns |I_p| under opts.
func (e *MetricsEngine) Impact(p string, opts TraversalOpts) int {
	return e.setOf(e.entry(opts).stateImp, p).n
}

// setOf returns p's dependent-site set in st, empty when st is nil or p is
// a name the engine never saw.
func (e *MetricsEngine) setOf(st *propState, p string) rowSet {
	id, ok := e.ids[p]
	if !ok || st == nil {
		return rowSet{}
	}
	return st.sets[st.comp[id]]
}

// siteSet returns the member sites of p's dependent-site set under opts
// (the impact set when critical, else the concentration set): the set the
// counts are the sizes of.
func (e *MetricsEngine) siteSet(p string, opts TraversalOpts, critical bool) map[string]bool {
	ent := e.entry(opts)
	st := ent.stateConc
	if critical {
		st = ent.stateImp
	}
	set := e.setOf(st, p)
	out := make(map[string]bool, set.n)
	for _, id := range set.appendTo(nil) {
		out[e.siteNames[id]] = true
	}
	return out
}

// Counts returns |C_p| and |I_p| for every provider under opts, as fresh
// maps; a reader of a few names should ask Concentration and Impact.
func (e *MetricsEngine) Counts(opts TraversalOpts) (conc, imp map[string]int) {
	ent := e.entry(opts)
	conc, imp = make(map[string]int, len(e.names)), make(map[string]int, len(e.names))
	for _, name := range e.names {
		conc[name], imp[name] = e.setOf(ent.stateConc, name).n, e.setOf(ent.stateImp, name).n
	}
	return conc, imp
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
	return e.entryVia(viaBits(opts))
}

// entryVia is entry keyed by a traversal's viaBits.
func (e *MetricsEngine) entryVia(key uint8) *metricsEntry {
	e.mu.Lock()
	ent, ok := e.cache[key]
	if !ok {
		ent = &metricsEntry{}
		e.cache[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		e.initOnce.Do(e.init)
		ent.stateConc = e.propagate(key, false)
		ent.stateImp = e.propagate(key, true)
		ent.ready.Store(true)
	})
	return ent
}

// init builds the engine's direct-user table from the graph's nodes: stable
// site ids (the first occurrence of a name owns it), then the one table
// builder fed from Sites and Providers.
func (e *MetricsEngine) init() {
	g := e.g
	e.siteID = make(map[string]int32, len(g.Sites))
	e.siteNames = make([]string, len(g.Sites))
	for i, s := range g.Sites {
		if _, ok := e.siteID[s.Name]; !ok {
			e.siteID[s.Name] = int32(i)
		}
		e.siteNames[i] = s.Name
	}
	e.nSiteIDs = len(g.Sites)
	e.buildTable(func(t tableFeed) {
		for _, s := range g.Sites {
			id := e.siteID[s.Name]
			siteUses(s, func(name string, k use) { t.use(id, name, k) })
		}
		for _, p := range g.Providers {
			t.provider(p.Name)
			for _, d := range p.Deps {
				for _, target := range d.Providers {
					t.dependency(p.Name, p.Service, d.Class, target)
				}
			}
		}
	})
}

// propagate computes one metric (concentration, or impact when critical) for
// every provider: SCC condensation of the filtered edges, then a sinks-first
// sweep unioning site sets up the DAG, parallel within each depth level. It
// returns the propagation state it built, which the entry retains: counts
// are its sets' sizes, and ApplyDelta patches it instead of re-propagating.
func (e *MetricsEngine) propagate(via uint8, critical bool) *propState {
	n := len(e.names)
	// Degenerate inputs: with no providers or no sites every count is zero,
	// which a nil state answers without condensing an empty graph.
	if n == 0 || e.nSiteIDs == 0 {
		return nil
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

	st := &propState{comp: comp, members: members, succ: succ, sets: make([]rowSet, ncomp)}
	workers := e.workerCount()
	for _, comps := range byLevel {
		cs := comps
		conc.Do(len(cs), workers, func(i int) { st.fill(cs[i], base, e.nSiteIDs) })
	}
	return st
}

// fill computes component c's dependent-site set, over site ids below
// nSites, from its members' base rows and its successors' sets, which must
// be final. The candidates — the base rows' entries and the successors'
// members, repeats included — decide the work. A pure pass-through
// component (no direct users of its own, one successor) shares its
// successor's set: sets are never mutated once computed, so aliasing is
// safe. Fewer candidates than a site bitset has words are merged as sorted
// ids; more are ORed into a bitset, kept in whichever form is smaller. The
// batch propagation and the delta patch both fill components with it.
func (st *propState) fill(c int32, base [][]int32, nSites int) {
	ss, own := st.succ[c], 0
	for _, u := range st.members[c] {
		own += len(base[u])
	}
	if own == 0 && len(ss) == 1 {
		st.sets[c] = st.sets[ss[0]]
		return
	}
	candidates := own
	for _, sc := range ss {
		candidates += st.sets[sc].n
	}
	if words := (nSites + 63) / 64; candidates < words {
		ids := make([]int32, 0, candidates)
		for _, u := range st.members[c] {
			ids = append(ids, base[u]...)
		}
		for _, sc := range ss {
			ids = st.sets[sc].appendTo(ids)
		}
		slices.Sort(ids)
		st.sets[c] = idRowSet(slices.Compact(ids), words)
		return
	}
	bs := newBitset(nSites)
	for _, u := range st.members[c] {
		for _, id := range base[u] {
			bs.set(int(id))
		}
	}
	for _, sc := range ss {
		st.sets[sc].unionInto(bs)
	}
	st.sets[c] = bitsetRowSet(bs)
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
