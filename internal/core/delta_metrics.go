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
//   - direct-user rows are recomputed only for dirty names;
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
	touchedIDs := make([]int, 0, len(eff.Touched))
	for name := range eff.Touched {
		touchedIDs = append(touchedIDs, ids[name])
	}
	sort.Ints(touchedIDs)

	// Every ready entry ran init() before its fill, so the base state is
	// there to carry.
	e.patchInit(ne, eff, touchedIDs)

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

// patchInit carries the rest of the init() state onto ne, whose universe the
// caller already set: stable site ids (extended for added sites), reverse
// edges (valid verbatim — the delta was not structural) and direct-user rows
// recomputed for touched names only: the wider dirty closure re-unions
// existing rows but never changes them.
func (e *MetricsEngine) patchInit(ne *MetricsEngine, eff *DeltaEffect, touchedIDs []int) {
	ne.siteID = e.siteID
	ne.nSiteIDs = e.nSiteIDs
	if len(eff.AddedSites) > 0 {
		ne.siteID = maps.Clone(e.siteID)
		for _, s := range eff.AddedSites {
			if _, ok := ne.siteID[s.Name]; !ok {
				ne.siteID[s.Name] = int32(ne.nSiteIDs)
				ne.nSiteIDs++
			}
		}
	}

	n := len(ne.names)
	ne.baseAll = growRows(e.baseAll, n)
	ne.baseCrit = growRows(e.baseCrit, n)
	ne.edges = growRows(e.edges, n)
	for _, u := range touchedIDs {
		ne.baseAll[u], ne.baseCrit[u] = siteBaseRows(ne.g, ne.names[u], ne.siteID)
	}
	ne.initOnce.Do(func() {})
}

// growRows clones a row slice's spine to n slots; rows stay shared.
func growRows[T any](in [][]T, n int) [][]T {
	out := make([][]T, n)
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

	comp := make([]int32, n)
	copy(comp, st.comp)
	ncomp := len(st.members)
	members := growRows(st.members, ncomp+(n-nOld))
	succ := growRows(st.succ, ncomp+(n-nOld))
	hasBase := make([]bool, ncomp+(n-nOld))
	copy(hasBase, st.hasBase)
	sets := make([]bitset, ncomp+(n-nOld))
	copy(sets, st.sets)
	counts := make([]int, ncomp+(n-nOld))
	copy(counts, st.counts)

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
	for _, c := range order {
		hb := false
		for _, u := range members[c] {
			if len(base[u]) > 0 {
				hb = true
				break
			}
		}
		hasBase[c] = hb
		ss := succ[c]
		if !hb && len(ss) == 1 {
			sets[c] = sets[ss[0]]
			counts[c] = counts[ss[0]]
			continue
		}
		bs := newBitset(ne.nSiteIDs)
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

	out := maps.Clone(oldMap)
	if out == nil {
		out = make(map[string]int, n)
	}
	for c := range dirtyComp {
		for _, u := range members[c] {
			out[ne.names[u]] = counts[c]
		}
	}
	return out, &propState{
		comp:    comp,
		members: members,
		succ:    succ,
		hasBase: hasBase,
		sets:    sets,
		counts:  counts,
	}, true
}
