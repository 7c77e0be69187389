package core

import (
	"container/heap"
	"math/bits"
	"sort"
)

// This file implements the greedy mitigation optimizer: the constructive
// answer to the paper's "have we learned?" question. Where C_p/I_p rank
// providers by how much of the web they can take down, the optimizer ranks
// *defenses*: which K sites should add a second provider to one of their
// single-third-party arrangements to shrink the aggregate impact
//
//	Σ_p |I_p|
//
// the most. The objective decomposes per site: a site w is a member of I_p
// exactly when one of w's critical chains — a single-third arrangement, or
// a private-infrastructure node, followed through providers' own critical
// dependencies — reaches p. So w contributes |union of its chains' provider
// closures| to the aggregate, and converting one single-third arrangement
// to multi-third removes exactly the closure bits no other chain of w also
// covers. Contributions are independent across sites, so a greedy sweep
// over (site, service) candidates with per-site re-evaluation is exact for
// the sites it picks; the lazy-re-evaluation heap keeps it near-linear.
//
// Closures come from the graph's one critical-provider walk
// (criticalClosure, which also answers CriticalProviders and RobustnessOf)
// under the plan's traversal, stored as provider-id bitsets on the metrics
// engine's universe. The walk follows the same critical edges and service
// gate as the batch C_p/I_p propagation, so the optimizer's "before" totals
// agree with the engine (the property tests in mitigate_test.go pin both
// that and the "after" totals against graph surgery).

// MitigationOption is one ranked recommendation: add a second provider to
// this site's arrangement for this service.
type MitigationOption struct {
	// Site and Rank identify the website.
	Site string `json:"site"`
	Rank int    `json:"rank"`
	// Service is the single-third arrangement to make redundant.
	Service string `json:"service"`
	// Provider is the current sole provider of that arrangement.
	Provider string `json:"provider"`
	// Gain is the aggregate-impact reduction this option alone contributes:
	// the number of (provider, site) impact pairs it removes.
	Gain int `json:"gain"`
	// Cumulative is the running reduction up to and including this option.
	Cumulative int `json:"cumulative"`
}

// ProviderImpactDelta is one provider's impact before and after the plan.
type ProviderImpactDelta struct {
	Name   string `json:"name"`
	Before int    `json:"before"`
	After  int    `json:"after"`
}

// MitigationPlan is the optimizer's output: up to K options, ranked by
// marginal gain, with the aggregate and per-provider before/after deltas.
type MitigationPlan struct {
	K int `json:"k"`
	// Candidates counts the (site, service) single-third arrangements the
	// optimizer considered.
	Candidates int `json:"candidates"`
	// Before and After are the aggregate impact Σ_p |I_p| over every
	// provider of the universe, before and after applying every option.
	Before int `json:"aggregate_impact_before"`
	After  int `json:"aggregate_impact_after"`
	// Options are the picks in greedy order. Fewer than K are returned when
	// the remaining candidates have zero marginal gain.
	Options []MitigationOption `json:"options"`
	// ProviderDeltas lists the providers whose |I_p| the plan shrinks most
	// (up to 10), largest absolute reduction first.
	ProviderDeltas []ProviderImpactDelta `json:"provider_deltas,omitempty"`
}

// Reduction is the total aggregate-impact reduction of the plan.
func (p *MitigationPlan) Reduction() int { return p.Before - p.After }

// critChain is one critical dependency chain root of a site: the provider
// ids of one single-third arrangement or private-infrastructure entry,
// resolved to the closure of providers the chain makes the site critically
// dependent on.
type critChain struct {
	svc       Service
	provider  string // sole provider name (mitigable chains only)
	mitigable bool   // single-third arrangement, not private infra
	closure   bitset
	removed   bool
}

// mitigationState is the per-site greedy bookkeeping.
type mitigationState struct {
	site   *Site
	chains []critChain
}

// unionOthers unions the closures of every live chain except skip.
func (ms *mitigationState) unionOthers(skip int, nbits int) bitset {
	u := newBitset(nbits)
	for i := range ms.chains {
		if i == skip || ms.chains[i].removed {
			continue
		}
		u.unionWith(ms.chains[i].closure)
	}
	return u
}

// gainOf computes the current marginal gain of chain ci: the closure bits no
// other live chain of the site covers.
func (ms *mitigationState) gainOf(ci int, nbits int) int {
	others := ms.unionOthers(ci, nbits)
	gain := 0
	for w, word := range ms.chains[ci].closure {
		gain += bits.OnesCount64(word &^ others[w])
	}
	return gain
}

// mitigationCand is one heap entry. Entries are never updated in place:
// a re-evaluation pushes a fresh entry with a newer stamp and stale entries
// are discarded on pop.
type mitigationCand struct {
	gain  int
	site  int // index into states
	chain int
	stamp int
}

type candHeap []mitigationCand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].site != h[j].site {
		return h[i].site < h[j].site
	}
	return h[i].chain < h[j].chain
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(mitigationCand)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MitigationPlan greedily selects up to k (site, service) single-third
// arrangements whose conversion to a redundant arrangement shrinks the
// aggregate impact Σ_p |I_p| the most under opts. Deterministic: ties break
// by site rank, then service order.
func (g *Graph) MitigationPlan(k int, opts TraversalOpts) *MitigationPlan {
	e := g.Metrics()
	e.initOnce.Do(e.init)
	nbits := len(e.names)
	plan := &MitigationPlan{K: k}
	if k <= 0 || nbits == 0 {
		return plan
	}

	// A root's closure is the one critical-provider walk (criticalClosure)
	// under opts, memoized per root and mapped onto the engine's ids.
	closures := make(map[string]bitset)
	rootClosure := func(root string) bitset {
		if bs, ok := closures[root]; ok {
			return bs
		}
		set := make(map[string]bool)
		g.criticalClosure(root, opts, set)
		bs := newBitset(nbits)
		for name := range set {
			if id, ok := e.ids[name]; ok {
				bs.set(id)
			}
		}
		closures[root] = bs
		return bs
	}

	// Per-site critical chains. Only single-third arrangements are
	// mitigable; private-infrastructure chains participate in the overlap
	// union but are never candidates (the site owns that node — adding a
	// third party would not remove the critical dependency on it).
	var states []mitigationState
	for _, s := range g.Sites {
		var ms mitigationState
		ms.site = s
		for _, svc := range Services {
			if d, ok := s.Deps[svc]; ok && d.Class.Critical() && len(d.Providers) > 0 {
				cl := newBitset(nbits)
				for _, pname := range d.Providers {
					cl.unionWith(rootClosure(pname))
				}
				ms.chains = append(ms.chains, critChain{
					svc:       svc,
					provider:  d.Providers[0],
					mitigable: len(d.Providers) == 1,
					closure:   cl,
				})
			}
			for _, pname := range s.PrivateInfra[svc] {
				if _, known := e.ids[pname]; known {
					ms.chains = append(ms.chains, critChain{
						svc:     svc,
						closure: rootClosure(pname),
					})
				}
			}
		}
		if len(ms.chains) > 0 {
			states = append(states, ms)
		}
	}

	// The aggregate objective decomposes per site: Σ_p |I_p| equals the sum
	// over sites of |union of chain closures| — each (p, w) impact pair is
	// counted exactly once on each side.
	before := 0
	for i := range states {
		u := states[i].unionOthers(-1, nbits)
		before += u.count()
	}
	plan.Before = before

	// Seed the heap with every mitigable chain's initial gain.
	stamps := make(map[[2]int]int)
	var h candHeap
	for si := range states {
		for ci := range states[si].chains {
			if !states[si].chains[ci].mitigable {
				continue
			}
			plan.Candidates++
			h = append(h, mitigationCand{
				gain:  states[si].gainOf(ci, nbits),
				site:  si,
				chain: ci,
			})
		}
	}
	heap.Init(&h)

	// reduction[p] counts the sites the plan removes from I_p.
	reduction := make([]int, nbits)
	cumulative := 0
	for len(plan.Options) < k && h.Len() > 0 {
		c := heap.Pop(&h).(mitigationCand)
		key := [2]int{c.site, c.chain}
		if c.stamp != stamps[key] {
			continue // stale: a sibling pick re-evaluated this candidate
		}
		ms := &states[c.site]
		if ms.chains[c.chain].removed {
			continue
		}
		cur := ms.gainOf(c.chain, nbits)
		if cur != c.gain {
			// Gains only move when a same-site sibling was picked; push the
			// corrected entry and let the heap re-rank it.
			stamps[key]++
			heap.Push(&h, mitigationCand{gain: cur, site: c.site, chain: c.chain, stamp: stamps[key]})
			continue
		}
		if cur == 0 {
			break // every remaining candidate is fully shadowed
		}

		// Accept: record which providers lose this site.
		others := ms.unionOthers(c.chain, nbits)
		ch := &ms.chains[c.chain]
		for w, word := range ch.closure {
			for rem := word &^ others[w]; rem != 0; rem &= rem - 1 {
				reduction[w*64+bits.TrailingZeros64(rem)]++
			}
		}
		ch.removed = true
		cumulative += cur
		plan.Options = append(plan.Options, MitigationOption{
			Site:       ms.site.Name,
			Rank:       ms.site.Rank,
			Service:    ch.svc.String(),
			Provider:   ch.provider,
			Gain:       cur,
			Cumulative: cumulative,
		})
		// Re-evaluate the site's surviving candidates: their gains can only
		// have grown now that this chain no longer shadows them.
		for ci := range ms.chains {
			if ci == c.chain || ms.chains[ci].removed || !ms.chains[ci].mitigable {
				continue
			}
			k2 := [2]int{c.site, ci}
			stamps[k2]++
			heap.Push(&h, mitigationCand{gain: ms.gainOf(ci, nbits), site: c.site, chain: ci, stamp: stamps[k2]})
		}
	}
	plan.After = plan.Before - cumulative

	// Per-provider deltas, against the engine's own impact counts so the
	// "before" column matches every other report surface.
	type red struct {
		id int
		n  int
	}
	var reds []red
	for id, n := range reduction {
		if n > 0 {
			reds = append(reds, red{id, n})
		}
	}
	sort.Slice(reds, func(i, j int) bool {
		if reds[i].n != reds[j].n {
			return reds[i].n > reds[j].n
		}
		return e.names[reds[i].id] < e.names[reds[j].id]
	})
	if len(reds) > 10 {
		reds = reds[:10]
	}
	for _, r := range reds {
		name := e.names[r.id]
		impBefore := e.Impact(name, opts)
		plan.ProviderDeltas = append(plan.ProviderDeltas, ProviderImpactDelta{
			Name:   name,
			Before: impBefore,
			After:  impBefore - r.n,
		})
	}
	return plan
}
