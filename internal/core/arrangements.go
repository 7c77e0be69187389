package core

import (
	"slices"
	"sort"
)

// This file holds the graph's one arrangement resolver: sites' and declared
// providers' dependency arrangements with provider names resolved to
// metrics-engine ids. Both exposure questions read it — which sites a
// provider takes down (the simulator, simulate.go) and how critically a
// site depends on providers (the critical-provider walk below) — so which
// arrangement is critical, and how private infrastructure and chain vendors
// count, is decided once. The providers' arrangements are built once per
// graph; a site's are resolved when a query reads them, and only the
// simulator keeps every site's.

// arrKind says where an arrangement comes from.
type arrKind uint8

const (
	arrDep     arrKind = iota // a Deps entry
	arrPrivate                // the site's private-infrastructure nodes for svc
	arrChain                  // the site's distinct resource-chain vendors
)

// arr is one actor's arrangement for one service; its provider ids are
// stored in the arrRows holding it. Small fields keep it at 12 bytes.
type arr struct {
	svc    uint8 // a Service
	class  uint8 // a DepClass
	kind   arrKind
	lo, hi int32
}

// critical reports whether losing any provider loses the arrangement's
// service: a single third party, a private-infrastructure node or a chain
// vendor.
func (a arr) critical() bool { return a.kind != arrDep || DepClass(a.class).Critical() }

// criticalDep reports whether a is a single-third Deps entry: the roots of
// a site's critical-provider closure.
func (a arr) criticalDep() bool { return a.kind == arrDep && DepClass(a.class).Critical() }

// arrRows is a flat list of resolved arrangements grouped into rows: row r
// is arrs[off[r]:off[r+1]], and arrangement a's provider ids are
// ids[a.lo:a.hi].
type arrRows struct {
	arrs []arr
	ids  []int32
	off  []int32
}

func (r *arrRows) row(i int) []arr { return r.arrs[r.off[i]:r.off[i+1]] }

func (r *arrRows) provs(a arr) []int32 { return r.ids[a.lo:a.hi] }

// add appends one arrangement to the row being built; names outside the engine's
// universe are dropped (nothing in the graph can depend on them).
func (r *arrRows) add(ids map[string]int, svc Service, cls DepClass, kind arrKind, names ...string) {
	lo := int32(len(r.ids))
	for _, n := range names {
		if id, ok := ids[n]; ok {
			r.ids = append(r.ids, int32(id))
		}
	}
	r.arrs = append(r.arrs, arr{svc: uint8(svc), class: uint8(cls), kind: kind, lo: lo, hi: int32(len(r.ids))})
}

// arrTable is the arrangement table of one graph: the id universe and
// every provider id's third-party arrangements (row p of prov) and
// declared service (provSvc[p], -1 when no provider node declares the
// name).
type arrTable struct {
	e       *MetricsEngine
	prov    arrRows
	provSvc []int8
}

// arrangements returns the graph's arrangement table, building it on first
// use.
func (g *Graph) arrangements() *arrTable {
	g.arrOnce.Do(func() { g.arrs = newArrTable(g) })
	return g.arrs
}

func newArrTable(g *Graph) *arrTable {
	e := g.Metrics()
	e.initOnce.Do(e.init)
	t := &arrTable{e: e, prov: arrRows{off: []int32{0}}, provSvc: make([]int8, len(e.names))}
	for id, name := range e.names {
		t.provSvc[id] = -1
		if p := g.Providers[name]; p != nil {
			t.provSvc[id] = int8(p.Service)
			for _, svc := range AllServices {
				if d := p.Deps[svc]; d.Class.UsesThird() {
					t.prov.add(e.ids, svc, d.Class, arrDep, d.Providers...)
				}
			}
		}
		t.prov.off = append(t.prov.off, int32(len(t.prov.arrs)))
	}
	return t
}

// addSite appends s's arrangements to r as its next row, service by
// service in AllServices order: the Deps entry unless its class is none or
// unknown (providers resolved only for a third-party class), then the
// private-infrastructure nodes; last, one arrangement holding every
// distinct chain vendor. It is the only reader of a site's Deps,
// PrivateInfra and Chains for the exposure questions.
func (t *arrTable) addSite(r *arrRows, s *Site) {
	ids := t.e.ids
	for _, svc := range AllServices {
		if d, ok := s.Deps[svc]; ok && d.Class != ClassNone && d.Class != ClassUnknown {
			var provs []string
			if d.Class.UsesThird() {
				provs = d.Providers
			}
			r.add(ids, svc, d.Class, arrDep, provs...)
		}
		if infra := s.PrivateInfra[svc]; len(infra) > 0 {
			r.add(ids, svc, ClassPrivate, arrPrivate, infra...)
		}
	}
	if len(s.Chains) > 0 {
		// Several edges to one vendor at different depths are one use.
		lo := len(r.ids)
		for _, c := range s.Chains {
			if id, ok := ids[c.Provider]; ok {
				r.ids = append(r.ids, int32(id))
			}
		}
		slices.Sort(r.ids[lo:])
		r.ids = r.ids[:lo+len(slices.Compact(r.ids[lo:]))]
		r.arrs = append(r.arrs, arr{svc: uint8(Resource), class: uint8(ClassSingleThird), kind: arrChain, lo: int32(lo), hi: int32(len(r.ids))})
	}
	r.off = append(r.off, int32(len(r.arrs)))
}

// resolve makes r hold only s's arrangements and returns them.
func (t *arrTable) resolve(r *arrRows, s *Site) []arr {
	r.arrs, r.ids, r.off = r.arrs[:0], r.ids[:0], append(r.off[:0], 0)
	t.addSite(r, s)
	return r.arrs
}

// critWalk is the one walk over provider-to-provider critical edges.
// Reaching a provider marks it; walking on through it requires via to
// allow its declared service. seen doubles as the visited set, so several
// roots walk each provider once and end as the union of their closures;
// reached lists the marked ids, so reset clears only those bits.
type critWalk struct {
	t       *arrTable
	via     uint8
	seen    bitset
	reached []int32
}

// walkAllBits is the closure gate of the site-side critical-dependency
// walks: it continues through providers of every service.
var walkAllBits = viaBits(AllImplicit())

func (t *arrTable) walk(via uint8) *critWalk {
	return &critWalk{t: t, via: via, seen: newBitset(len(t.provSvc))}
}

// from walks from each of ids.
func (w *critWalk) from(ids []int32) {
	for _, p := range ids {
		if w.seen.has(int(p)) {
			continue
		}
		w.seen.set(int(p))
		w.reached = append(w.reached, p)
		if s := w.t.provSvc[p]; s >= 0 && w.via&(1<<uint(s)) != 0 {
			w.through(p)
		}
	}
}

// through walks from p's critical arrangements without reaching p itself.
func (w *critWalk) through(p int32) {
	for _, a := range w.t.prov.row(int(p)) {
		if a.critical() {
			w.from(w.t.prov.provs(a))
		}
	}
}

// fromCriticalDeps walks from the providers of the single-third Deps
// entries among arrs, whose ids r holds.
func (w *critWalk) fromCriticalDeps(r *arrRows, arrs []arr) {
	for _, a := range arrs {
		if a.criticalDep() {
			w.from(r.provs(a))
		}
	}
}

func (w *critWalk) reset() {
	for _, p := range w.reached {
		w.seen[p/64] &^= 1 << (uint(p) % 64)
	}
	w.reached = w.reached[:0]
}

// names returns the reached providers' names, sorted.
func (w *critWalk) names() []string {
	out := make([]string, len(w.reached))
	for i, p := range w.reached {
		out[i] = w.t.e.names[p]
	}
	sort.Strings(out)
	return out
}

// CriticalDepsPerSite returns, for each site, the number of distinct
// providers it critically depends on. With indirect true, a provider's own
// critical dependencies are charged to the sites critically depending on it
// (§8.1: 25% of sites have ≥3 critical dependencies vs 9.6% direct).
func (g *Graph) CriticalDepsPerSite(indirect bool) map[string]int {
	t := g.arrangements()
	w := t.walk(0)
	if indirect {
		w.via = walkAllBits
	}
	var r arrRows
	out := make(map[string]int, len(g.Sites))
	for _, s := range g.Sites {
		w.fromCriticalDeps(&r, t.resolve(&r, s))
		out[s.Name] = len(w.reached)
		w.reset()
	}
	return out
}

// CriticalProviders returns, sorted, every provider s depends on critically,
// directly or transitively through provider-to-provider critical
// dependencies — the per-site set CriticalDepsPerSite(true) counts.
func (g *Graph) CriticalProviders(s *Site) []string {
	t := g.arrangements()
	var r arrRows
	w := t.walk(walkAllBits)
	w.fromCriticalDeps(&r, t.resolve(&r, s))
	return w.names()
}

// CriticalDependents returns, sorted, the declared providers with a
// single-third arrangement naming p: the one hop of p's outage into the
// provider layer. A provider naming p in several arrangements is listed
// once per arrangement.
func (g *Graph) CriticalDependents(p string) []string {
	t := g.arrangements()
	var out []string
	for q := range t.provSvc {
		for _, a := range t.prov.row(q) {
			for _, r := range t.prov.provs(a) {
				if a.critical() && t.e.names[r] == p {
					out = append(out, t.e.names[q])
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
