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
// the sites it picks: a pick re-scores only its own site's candidates.
//
// A site's objective terms come from two coverage counts over its live
// chains, once (covered by at least one chain) and twice (by at least
// two): the site contributes |once|, and a chain c gains |c &^ twice|,
// the bits only c covers. One pair of scratch bitsets serves every site.
//
// Closures come from the graph's one critical-provider walk (critWalk,
// which also answers CriticalProviders and RobustnessOf) under the plan's
// traversal, stored as provider-id bitsets on the metrics engine's
// universe: one per provider, shared by every chain of that one provider.
// The walk follows the same critical edges and service gate as the batch
// C_p/I_p propagation, so the optimizer's "before" totals agree with the
// engine (the property tests in mitigate_test.go pin both that and the
// "after" totals against graph surgery). A plan allocates per plan, not
// per candidate or per chain (TestMitigationPlanAllocs).

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

// critChain is one critical dependency chain root of a site: one
// single-third arrangement or one service's private-infrastructure nodes,
// resolved to the closure of providers the chain makes the site critically
// dependent on.
type critChain struct {
	site      int32 // index into planner.sites
	closure   int32 // index into planner.closures
	provider  int32 // first provider id; -1 for private infrastructure
	stamp     int32 // the stamp of the chain's one current heap entry
	svc       uint8 // a Service
	mitigable bool  // single-third arrangement with one provider
	removed   bool  // picked: no longer covers the site
}

// planner is one plan's working state. A site's chains are
// chains[off[i]:off[i+1]], stored site by site in Sites order, so a chain's
// index orders candidates by site, then service. once and twice are
// the coverage counts of the site fill visited last: the providers one live
// chain of the site covers, and those two or more cover.
type planner struct {
	sites       []int32 // Graph.Sites index of each site with a chain
	off         []int32
	chains      []critChain
	closures    []bitset // per provider id, then one union per multi-provider chain
	once, twice bitset
	heap        candHeap
}

// fill computes once and twice over site si's live chains.
func (p *planner) fill(si int32) {
	clear(p.once)
	clear(p.twice)
	for i := p.off[si]; i < p.off[si+1]; i++ {
		if c := &p.chains[i]; !c.removed {
			for w, word := range p.closures[c.closure] {
				p.twice[w] |= p.once[w] & word
				p.once[w] |= word
			}
		}
	}
}

// gain is the marginal gain of chain ci, whose site fill visited last: the
// closure bits no other live chain of the site covers.
func (p *planner) gain(ci int32) int32 {
	n := 0
	for w, word := range p.closures[p.chains[ci].closure] {
		n += bits.OnesCount64(word &^ p.twice[w])
	}
	return int32(n)
}

// mitigationCand is one heap entry. Entries are never updated in place:
// a re-evaluation pushes a fresh entry with a newer stamp and stale entries
// are discarded on pop.
type mitigationCand struct {
	gain  int32
	chain int32
	stamp int32
}

type candHeap []mitigationCand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
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

// push and pop are heap.Push and heap.Pop through heap.Fix, which moves
// entries the same way without boxing each one into an interface value.
func (h *candHeap) push(c mitigationCand) {
	*h = append(*h, c)
	heap.Fix(h, len(*h)-1)
}

func (h *candHeap) pop() mitigationCand {
	old := *h
	c, n := old[0], len(old)-1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return c
}

// seed pushes every mitigable chain with its initial gain and returns the
// aggregate objective: Σ_p |I_p| equals the sum over sites of |union of
// chain closures| — each (p, w) impact pair is counted exactly once on
// each side.
func (p *planner) seed() int {
	before := 0
	for si := range p.sites {
		p.fill(int32(si))
		before += p.once.count()
		for ci := p.off[si]; ci < p.off[si+1]; ci++ {
			if p.chains[ci].mitigable {
				p.heap = append(p.heap, mitigationCand{gain: p.gain(ci), chain: ci})
			}
		}
	}
	heap.Init(&p.heap)
	return before
}

// next pops the best current candidate. It reports false once none is left
// or the best gains nothing. A pop whose stamp is current is exact: every
// pick re-pushes its site's surviving candidates with their new gains.
func (p *planner) next() (mitigationCand, bool) {
	for len(p.heap) > 0 {
		c := p.heap.pop()
		if c.stamp == p.chains[c.chain].stamp {
			return c, c.gain > 0
		}
	}
	return mitigationCand{}, false
}

// accept picks chain ci: reduction[q] counts each provider q whose impact
// set loses the site, and the site's surviving candidates are re-pushed.
// Their gains can only have grown now that this chain no longer shadows
// them.
func (p *planner) accept(ci int32, reduction []int) {
	ch := &p.chains[ci]
	p.fill(ch.site)
	for w, word := range p.closures[ch.closure] {
		for rem := word &^ p.twice[w]; rem != 0; rem &= rem - 1 {
			reduction[w*64+bits.TrailingZeros64(rem)]++
		}
	}
	ch.removed = true
	p.fill(ch.site)
	for i := p.off[ch.site]; i < p.off[ch.site+1]; i++ {
		if c := &p.chains[i]; c.mitigable && !c.removed {
			c.stamp++
			p.heap.push(mitigationCand{gain: p.gain(i), chain: i, stamp: c.stamp})
		}
	}
}

// MitigationPlan greedily selects up to k (site, service) single-third
// arrangements whose conversion to a redundant arrangement shrinks the
// aggregate impact Σ_p |I_p| the most under opts. Deterministic: ties break
// by site rank, then service order.
func (g *Graph) MitigationPlan(k int, opts TraversalOpts) *MitigationPlan {
	t := g.arrangements()
	e := t.e
	nbits := len(e.names)
	plan := &MitigationPlan{K: k}
	if k <= 0 || nbits == 0 {
		return plan
	}

	p := g.newPlanner(t, opts, k)
	plan.Before = p.seed()
	plan.Candidates = len(p.heap)

	// reduction[q] counts the sites the plan removes from I_q.
	reduction := make([]int, nbits)
	cumulative := 0
	for len(plan.Options) < k {
		c, ok := p.next()
		if !ok {
			break
		}
		if plan.Options == nil {
			plan.Options = make([]MitigationOption, 0, min(k, plan.Candidates))
		}
		p.accept(c.chain, reduction)
		ch := &p.chains[c.chain]
		site := g.Sites[p.sites[ch.site]]
		cumulative += int(c.gain)
		plan.Options = append(plan.Options, MitigationOption{
			Site:       site.Name,
			Rank:       site.Rank,
			Service:    Service(ch.svc).String(),
			Provider:   e.names[ch.provider],
			Gain:       int(c.gain),
			Cumulative: cumulative,
		})
	}
	plan.After = plan.Before - cumulative

	// Per-provider deltas, against the engine's own impact counts so the
	// "before" column matches every other report surface.
	type red struct {
		id int
		n  int
	}
	nReds := 0
	for _, n := range reduction {
		if n > 0 {
			nReds++
		}
	}
	reds := make([]red, 0, nReds)
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
	if len(reds) > 0 {
		plan.ProviderDeltas = make([]ProviderImpactDelta, 0, len(reds))
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

// newPlanner resolves the critical chains of every site that has one, in
// site order: one per single-third arrangement and one per service's
// private-infrastructure nodes, over the Services. Only single-third
// arrangements with one provider are mitigable; private-infrastructure
// chains participate in the overlap counts but are never candidates (the
// site owns that node — adding a third party would not remove the critical
// dependency on it).
//
// A provider's closure is the one critical-provider walk under opts, walked
// once per plan into one block of per-provider bitsets over the engine's
// ids; a chain with one provider shares its provider's bitset, and only a
// chain with several gets its own union. Every buffer is sized up front: a
// site has at most one chain per Deps entry and one per PrivateInfra
// service, and each of at most k picks re-pushes at most its site's other
// chains.
func (g *Graph) newPlanner(t *arrTable, opts TraversalOpts, k int) *planner {
	nbits := len(t.e.names)
	words := (nbits + 63) / 64
	bound := 0
	for _, s := range g.Sites {
		bound += len(s.Deps) + len(s.PrivateInfra)
	}
	p := &planner{
		sites:    make([]int32, 0, len(g.Sites)),
		off:      make([]int32, 1, len(g.Sites)+1),
		chains:   make([]critChain, 0, bound),
		closures: make([]bitset, nbits),
		once:     make(bitset, words),
		twice:    make(bitset, words),
	}
	block := make([]uint64, nbits*words)
	w := t.walk(viaBits(opts))
	closure := func(provs []int32) int32 {
		for j, q := range provs {
			if p.closures[q] != nil {
				continue
			}
			cl := bitset(block[int(q)*words : (int(q)+1)*words : (int(q)+1)*words])
			w.from(provs[j : j+1])
			for _, r := range w.reached {
				cl.set(int(r))
			}
			w.reset()
			p.closures[q] = cl
		}
		if len(provs) == 1 {
			return provs[0]
		}
		u := newBitset(nbits)
		for _, q := range provs {
			u.unionWith(p.closures[q])
		}
		p.closures = append(p.closures, u)
		return int32(len(p.closures) - 1)
	}
	// A site's arrangements come from the simulator's resolved rows when an
	// outage simulation has built them, else are resolved here one by one.
	var resolved arrRows
	r, siteArrs := &resolved, func(i int) []arr { return t.resolve(&resolved, g.Sites[i]) }
	if sim := g.sim.Load(); sim != nil {
		r, siteArrs = &sim.sites, sim.sites.row
	}
	candidates, maxChains := 0, 0
	for i := range g.Sites {
		site, lo := int32(len(p.sites)), len(p.chains)
		for _, a := range siteArrs(i) {
			switch {
			case Service(a.svc) == Resource:
			case a.criticalDep() && a.hi > a.lo:
				p.chains = append(p.chains, critChain{
					site:      site,
					closure:   closure(r.provs(a)),
					provider:  r.provs(a)[0],
					svc:       a.svc,
					mitigable: a.hi-a.lo == 1,
				})
				if a.hi-a.lo == 1 {
					candidates++
				}
			case a.kind == arrPrivate:
				p.chains = append(p.chains, critChain{
					site:     site,
					closure:  closure(r.provs(a)),
					provider: -1,
					svc:      a.svc,
				})
			}
		}
		if n := len(p.chains) - lo; n > 0 {
			p.sites = append(p.sites, int32(i))
			p.off = append(p.off, int32(len(p.chains)))
			maxChains = max(maxChains, n)
		}
	}
	p.heap = make(candHeap, 0, candidates+min(k, candidates)*(maxChains-1))
	return p
}
