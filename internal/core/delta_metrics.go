package core

import (
	"maps"
	"slices"
	"sort"
)

// This file carries a MetricsEngine across a graph delta. The engine's
// expensive artifacts — the provider universe, the per-name direct-user
// rows, the SCC condensation and the per-component dependent-site bitsets —
// are all keyed by structure a small delta barely touches, so instead of
// rebuilding them the new graph's engine patches copies:
//
//   - the universe and site-id space are append-only (removed names keep
//     their ids with empty rows), so retained bitsets stay comparable;
//   - the direct-user table (table.go) is patched for the site nodes the
//     delta unlinked and linked, copying only the rows it edits;
//   - for each cached traversal, only the components that can reach a dirty
//     name's component through the condensation (i.e. the SCCs/levels the
//     touched nodes feed) are re-unioned, in ascending (sinks-first)
//     component order, reusing every other component's published set.
//
// Structural deltas (provider-to-provider edge changes) invalidate the
// condensation and fall back to a fresh engine, as does a dirty set past
// deltaDirtyLimit — at that point a full init()+propagate is cheaper than
// patching, which is exactly what the fresh engine's first query runs.

// deltaDirtyLimit is the dirtiness threshold: once more than this share of
// the universe is dirty, ApplyDelta falls back to a from-scratch engine.
// A var so tests can force either path.
var deltaDirtyLimit = func(universe int) int { return universe / 2 }

// ApplyDelta derives the metrics engine for ng — a graph produced by
// applying a delta with effect eff to this engine's graph — reusing as much
// cached state as the delta leaves valid. It returns the new engine and the
// number of cached traversal entries carried over incrementally; zero means
// the new engine starts cold (still correct: its first query recomputes).
// The receiver keeps serving the old graph unchanged.
func (e *MetricsEngine) ApplyDelta(ng *Graph, eff *DeltaEffect) (*MetricsEngine, int) {
	ne := NewMetricsEngine(ng, 0)
	e.mu.Lock()
	ne.workers = e.workers
	entries := make(map[uint8]*metricsEntry, len(e.cache))
	for k, ent := range e.cache {
		if ent.ready.Load() {
			entries[k] = ent
		}
	}
	e.mu.Unlock()
	if eff.Structural || len(entries) == 0 {
		return ne, 0
	}

	// The universe carries forward append-only. Any name the delta touched
	// that the old engine never saw (a brand-new provider identity) gets a
	// fresh id; names that dropped out of the graph keep theirs with empty
	// rows and a zero count — harmless, and it keeps every retained array
	// index-stable.
	names, ids := e.names, e.ids
	var added []string
	for name := range eff.Dirty {
		if _, ok := ids[name]; !ok {
			added = append(added, name)
		}
	}
	if len(added) > 0 {
		sort.Strings(added)
		ids = maps.Clone(ids)
		names = slices.Clone(names)
		for _, name := range added {
			ids[name] = len(names)
			names = append(names, name)
		}
	}
	if len(eff.Dirty) > deltaDirtyLimit(len(names)) {
		return ne, 0
	}
	ne.names, ne.ids = names, ids

	dirtyIDs := make([]int, 0, len(eff.Dirty))
	for name := range eff.Dirty {
		dirtyIDs = append(dirtyIDs, ids[name])
	}
	sort.Ints(dirtyIDs)
	// Every ready entry ran init() before its fill, so the base state is
	// there to carry.
	e.patchInit(ne, eff)

	carried := 0
	for key, ent := range entries {
		nent := ne.patchEntry(ent, dirtyIDs)
		if nent == nil {
			continue
		}
		ne.cache[key] = nent
		carried++
	}
	return ne, carried
}

// patchInit carries the rest of the init() state onto ne, whose universe
// the caller already set: stable site ids (extended for added sites),
// reverse edges (valid verbatim — the delta was not structural) and the
// direct-user table, patched by replaying eff.Links in op order. Each row
// an unlink or link edits is copied on its first edit, so e and its other
// successors keep the rows they share.
func (e *MetricsEngine) patchInit(ne *MetricsEngine, eff *DeltaEffect) {
	ne.siteID = e.siteID
	ne.siteNames = e.siteNames
	ne.nSiteIDs = e.nSiteIDs
	if len(eff.AddedSites) > 0 {
		ne.siteID = maps.Clone(e.siteID)
		// Clipped so appending copies: e and its other successors keep
		// sharing the old backing array.
		ne.siteNames = slices.Clip(e.siteNames)
		for _, s := range eff.AddedSites {
			if _, ok := ne.siteID[s.Name]; !ok {
				ne.siteID[s.Name] = int32(ne.nSiteIDs)
				ne.siteNames = append(ne.siteNames, s.Name)
				ne.nSiteIDs++
			}
		}
	}

	n := len(ne.names)
	ne.baseAll = grow(e.baseAll, n)
	ne.baseCrit = grow(e.baseCrit, n)
	ne.edges = grow(e.edges, n)
	ne.users = grow(e.users, n)
	owned := make(map[int]bool)
	for _, l := range eff.Links {
		site := ne.siteID[l.Site.Name]
		siteUses(l.Site, func(name string, k use) {
			u := ne.ids[name]
			if !owned[u] {
				owned[u] = true
				ne.baseAll[u] = slices.Clone(ne.baseAll[u])
				ne.baseCrit[u] = slices.Clone(ne.baseCrit[u])
			}
			if l.Linked {
				ne.link(u, site, k)
			} else {
				ne.unlink(u, site, k)
			}
		})
	}
	ne.initOnce.Do(func() {})
}

// grow copies in into a fresh slice of n slots; a slice of rows keeps
// sharing the rows.
func grow[E any](in []E, n int) []E {
	out := make([]E, n)
	copy(out, in)
	return out
}

// patchEntry carries one cached traversal result onto the new engine by
// re-unioning only the dirty components, or returns nil when the entry is
// better recomputed on demand.
func (ne *MetricsEngine) patchEntry(ent *metricsEntry, dirtyIDs []int) *metricsEntry {
	if ent.stateConc == nil || ent.stateImp == nil {
		return nil
	}
	nent := &metricsEntry{}
	var ok bool
	nent.conc, nent.stateConc, ok = ne.repropagate(ent.conc, ent.stateConc, false, dirtyIDs)
	if !ok {
		return nil
	}
	nent.imp, nent.stateImp, ok = ne.repropagate(ent.imp, ent.stateImp, true, dirtyIDs)
	if !ok {
		return nil
	}
	nent.once.Do(func() {})
	nent.ready.Store(true)
	return nent
}

// repropagate patches one metric's retained propagation state for the new
// engine: dirty names map to dirty components, new names become isolated
// singleton components (nothing can depend on them — the delta was not
// structural), and dirty components are re-unioned in ascending component
// order so recomputed successors are always final before their
// predecessors read them. Untouched components keep their published sets.
func (ne *MetricsEngine) repropagate(oldMap map[string]int, st *propState, critical bool, dirtyIDs []int) (map[string]int, *propState, bool) {
	nOld := len(st.comp)
	n := len(ne.names)
	base := ne.baseAll
	if critical {
		base = ne.baseCrit
	}

	comp := grow(st.comp, n)
	ncomp := len(st.members)
	members := grow(st.members, ncomp+(n-nOld))
	succ := grow(st.succ, ncomp+(n-nOld))
	hasBase := grow(st.hasBase, ncomp+(n-nOld))
	sets := grow(st.sets, ncomp+(n-nOld))
	counts := grow(st.counts, ncomp+(n-nOld))

	dirtyComp := make(map[int32]bool, len(dirtyIDs))
	for _, u := range dirtyIDs {
		if u < nOld {
			dirtyComp[st.comp[u]] = true
			continue
		}
		c := int32(ncomp)
		ncomp++
		comp[u] = c
		members[c] = []int32{int32(u)}
		dirtyComp[c] = true
	}
	members = members[:ncomp]
	succ = succ[:ncomp]
	hasBase = hasBase[:ncomp]
	sets = sets[:ncomp]
	counts = counts[:ncomp]

	// Mark every component that can reach a dirty one through the
	// condensation (its set unions theirs). Successor ids are always
	// smaller, so one ascending sweep over all components settles
	// reachability transitively.
	for c := int32(0); c < int32(ncomp); c++ {
		if dirtyComp[c] {
			continue
		}
		for _, sc := range succ[c] {
			if dirtyComp[sc] {
				dirtyComp[c] = true
				break
			}
		}
	}
	if len(dirtyComp) > deltaDirtyLimit(ncomp) {
		return nil, nil, false
	}

	order := make([]int32, 0, len(dirtyComp))
	for c := range dirtyComp {
		order = append(order, c)
	}
	slices.Sort(order)
	nst := &propState{comp: comp, members: members, succ: succ, hasBase: hasBase, sets: sets, counts: counts}
	for _, c := range order {
		hasBase[c] = slices.ContainsFunc(members[c], func(u int32) bool { return len(base[u]) > 0 })
		nst.fill(c, base, ne.nSiteIDs)
	}

	out := maps.Clone(oldMap)
	if out == nil {
		out = make(map[string]int, n)
	}
	for c := range dirtyComp {
		for _, u := range members[c] {
			out[ne.names[u]] = counts[c]
		}
	}
	return out, nst, true
}
