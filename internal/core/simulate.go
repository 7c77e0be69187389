package core

import (
	"math/bits"
	"sort"
)

// This file implements the what-if outage simulator underneath
// internal/incident. Where the metrics engine answers "how many sites does
// provider p ultimately serve?" (C_p, I_p), the simulator answers the
// question the Mirai-Dyn incident poses: given a *set* of failed providers,
// possibly partially degraded, what state does every website end up in?
//
// The simulator is built from the metrics engine's precomputed view — the
// provider id universe and the reverse dependency edges that feed its SCC
// condensation — so both answer over the identical structure. That makes the
// headline consistency property hold by construction: with one failed
// provider at full severity, the set of down sites equals I_p membership and
// the set of affected (down or degraded) sites equals C_p membership. The
// property tests in simulate_test.go and internal/incident assert exactly
// that.
//
// Failure propagates along a worklist over the reverse edges, honoring the
// same TraversalOpts service filter as the C_p/I_p recursion: a provider is
// woken only through edges whose dependent's service the traversal allows.
// Provider and site health follow the paper's redundancy semantics:
//
//   - a critical arrangement (single third party, or the actor's own private
//     infrastructure node) is as unhealthy as its unhealthiest provider:
//     down provider → service lost, degraded provider → service degraded;
//   - a redundant arrangement (multi-third, private+third) degrades when any
//     of its providers is unhealthy but never loses the service — the paper
//     treats redundancy as absolute. The opt-in JointFailures mode (after
//     Kashaf et al.'s "Fragile Web") lets a multi-third arrangement fail
//     when ALL of its third parties are down; private+third always keeps
//     the private fallback.
//
// A site is down when any consumed service is lost, degraded when any is
// impaired, unaffected otherwise. Its resilience score generalizes the §8.3
// defense metric to outage states: 1 minus the mean penalty over consumed
// services (lost = 1, degraded = ½, healthy = 0).
//
// Sites are classified from the provider side. Construction inverts every
// site arrangement into provider→site rows, and after a cascade only the
// rows of the providers that left Up are visited. A row with at least as
// many entries as the site bitset has words also gets a prebuilt bitset,
// which is ORed in word by word; shorter rows set one bit per entry. A
// dense row's bitset costs at most twice the bytes of its int32 entries
// (8 bytes a word, at most one word per entry). A run therefore costs
// O(Σ min(row length, sites/64) over the touched providers' rows +
// sites/64), where a pass over every site's arrangements would cost
// O(sites × arrangements). An arrangement is non-Up exactly when one of its
// providers is, so the rows find every affected site; the test oracle in
// export_test.go is that full scan.

// ProviderState is a provider's health during a simulated outage. Order
// matters: states only ever escalate (up → degraded → down).
type ProviderState uint8

// Provider health states.
const (
	ProviderUp ProviderState = iota
	ProviderDegraded
	ProviderDown
)

// String names the state.
func (s ProviderState) String() string {
	switch s {
	case ProviderUp:
		return "up"
	case ProviderDegraded:
		return "degraded"
	case ProviderDown:
		return "down"
	}
	return "invalid"
}

// SiteOutcome classifies one website at the end of a simulated outage.
type SiteOutcome uint8

// Site outcomes, in escalation order.
const (
	// SiteUnaffected: no consumed service touched by the outage.
	SiteUnaffected SiteOutcome = iota
	// SiteDegraded: some consumed service impaired (a redundant arrangement
	// lost capacity, or a partially degraded provider serves it) but none
	// fully lost.
	SiteDegraded
	// SiteDown: at least one consumed service fully lost — the outage
	// reaches the site through a critical dependency chain.
	SiteDown
)

// String names the outcome.
func (o SiteOutcome) String() string {
	switch o {
	case SiteUnaffected:
		return "unaffected"
	case SiteDegraded:
		return "degraded"
	case SiteDown:
		return "down"
	}
	return "invalid"
}

// OutageOpts tunes one simulation run.
type OutageOpts struct {
	// Severity in (0,1) models a partial outage: targets only degrade
	// instead of going dark, so nothing downstream can do worse than
	// degrade. 0 or 1 both mean a full outage.
	Severity float64
	// JointFailures enables redundancy exhaustion, beyond the paper's
	// semantics: a multi-third arrangement whose providers are all down
	// loses the service. Off, redundancy is absolute (the paper's model,
	// and the mode whose single-provider runs reproduce I_p exactly).
	JointFailures bool
}

// OutageResult is the full outcome of one simulation run.
type OutageResult struct {
	// Outcomes is indexed like Graph.Sites.
	Outcomes []SiteOutcome
	// Resilience per site: 1 - mean penalty over consumed services
	// (lost = 1, degraded = 0.5). A site consuming nothing scores 1.
	Resilience []float64
	// Direct marks sites with a dependency arrangement listing a target —
	// the direct victims, versus collateral reached through chains.
	Direct []bool

	Down, Degraded, Unaffected int

	// LostByService / DegradedByService count sites whose arrangement for
	// that service was lost (resp. impaired but not lost).
	LostByService     map[Service]int
	DegradedByService map[Service]int

	// DownProviders / DegradedProviders list every provider in that state
	// after the cascade, targets included, sorted.
	DownProviders     []string
	DegradedProviders []string
}

// simArr is one actor's dependency arrangement for one service, resolved to
// provider ids: the unit the cascade and the site classification evaluate.
type simArr struct {
	svc     Service
	class   DepClass
	private bool // a PrivateInfra pseudo-arrangement: critical by construction
	provs   []int32
}

// critical reports whether losing any provider loses the arrangement's
// service: a single third party, a private-infrastructure node or a chain
// vendor.
func (a simArr) critical() bool { return a.private || a.class.Critical() }

// jointArr is one site's multi-third arrangement, the only kind redundancy
// exhaustion (OutageOpts.JointFailures) can take down.
type jointArr struct {
	site  int32
	provs []int32
}

// csr is a compressed sparse row table of int32 ids: row r is
// ids[off[r]:off[r+1]].
type csr struct {
	off []int32
	ids []int32
}

func (c csr) row(r int32) []int32 { return c.ids[c.off[r]:c.off[r+1]] }

// buildCSR assembles an n-row table from the (row, id) pairs fill emits.
// fill runs twice — once to size the rows, once to write them — so it must
// emit the same pairs both times.
func buildCSR(n int, fill func(emit func(row, id int32))) csr {
	c := csr{off: make([]int32, n+1)}
	fill(func(r, _ int32) { c.off[r+1]++ })
	for r := 0; r < n; r++ {
		c.off[r+1] += c.off[r]
	}
	c.ids = make([]int32, c.off[n])
	next := append([]int32(nil), c.off[:n]...)
	fill(func(r, id int32) {
		c.ids[next[r]] = id
		next[r]++
	})
	return c
}

// OutageSim is the reusable simulator for one (Graph, TraversalOpts) pair.
// Construction resolves every dependency arrangement to metric-engine ids
// once and inverts the site arrangements into provider→site rows; each Run
// is then pure integer work over the providers the cascade reaches. Obtain
// one via Graph.OutageSim. An OutageSim is safe for concurrent Runs.
type OutageSim struct {
	g   *Graph
	e   *MetricsEngine
	via uint8

	provArrs [][]simArr // per provider id: the provider's own arrangements
	siteArrs [][]simArr // per site index: third-party + private arrangements
	consumed []int      // per site: number of consumed services (resilience denominator)

	// Provider→site rows. A site is affected exactly when a non-Up provider
	// appears in one of its arrangements, and loses a service when a down
	// provider appears in a critical arrangement or, under JointFailures,
	// when every provider of one of its multi-third arrangements is down.
	// siteRows row 2p lists the sites with a critical arrangement naming
	// provider p, row 2p+1 the other sites naming it; jointRows row p
	// indexes joint. dense[r] is siteRows row r as a site bitset when the
	// row has at least as many entries as the bitset has words, else nil.
	siteRows  csr
	dense     []bitset
	joint     []jointArr
	jointRows csr
}

// unionRow ORs the sites of siteRows row r into b: word by word from the
// row's dense bitset when it has one, one bit per entry otherwise.
func (s *OutageSim) unionRow(b bitset, r int32) {
	if d := s.dense[r]; d != nil {
		b.unionWith(d)
		return
	}
	for _, i := range s.siteRows.row(r) {
		b.set(int(i))
	}
}

// OutageSim returns the graph's shared simulator for opts, building it on
// first use. Like metrics-engine entries, simulators are cached per
// traversal key — the graph is immutable after NewGraph, so entries never
// invalidate.
func (g *Graph) OutageSim(opts TraversalOpts) *OutageSim {
	key := viaBits(opts)
	g.simMu.Lock()
	defer g.simMu.Unlock()
	if g.sims == nil {
		g.sims = make(map[uint8]*OutageSim)
	}
	s, ok := g.sims[key]
	if !ok {
		s = newOutageSim(g, key)
		g.sims[key] = s
	}
	return s
}

func newOutageSim(g *Graph, via uint8) *OutageSim {
	// Reuse the metrics engine's provider universe and reverse edges; the
	// engine is built lazily exactly once per graph.
	e := g.Metrics()
	e.initOnce.Do(e.init)
	s := &OutageSim{g: g, e: e, via: via}

	idsOf := func(names []string) []int32 {
		out := make([]int32, 0, len(names))
		for _, n := range names {
			if id, ok := e.ids[n]; ok {
				out = append(out, int32(id))
			}
		}
		return out
	}

	s.provArrs = make([][]simArr, len(e.names))
	for name, p := range g.Providers {
		id := e.ids[name]
		for svc, d := range p.Deps {
			if !d.Class.UsesThird() {
				continue
			}
			s.provArrs[id] = append(s.provArrs[id], simArr{svc: svc, class: d.Class, provs: idsOf(d.Providers)})
		}
	}

	s.siteArrs = make([][]simArr, len(g.Sites))
	s.consumed = make([]int, len(g.Sites))
	for i, site := range g.Sites {
		seen := make(map[Service]bool, len(site.Deps))
		for svc, d := range site.Deps {
			if d.Class == ClassNone || d.Class == ClassUnknown {
				continue
			}
			seen[svc] = true
			if d.Class.UsesThird() {
				s.siteArrs[i] = append(s.siteArrs[i], simArr{svc: svc, class: d.Class, provs: idsOf(d.Providers)})
			}
		}
		for svc, names := range site.PrivateInfra {
			if len(names) == 0 {
				continue
			}
			seen[svc] = true
			s.siteArrs[i] = append(s.siteArrs[i], simArr{svc: svc, class: ClassPrivate, private: true, provs: idsOf(names)})
		}
		// Chain edges: one critical pseudo-arrangement per distinct vendor,
		// mirroring indexChainEdges — a down vendor takes the site down, no
		// redundancy. Included under every traversal key (gather unions a
		// provider's chain users unconditionally too); the via filter only
		// decides whether the cascade may *continue* through vendor nodes.
		if len(site.Chains) > 0 {
			seen[Resource] = true
			chainSeen := make(map[string]bool, len(site.Chains))
			for _, ce := range site.Chains {
				if chainSeen[ce.Provider] {
					continue
				}
				chainSeen[ce.Provider] = true
				s.siteArrs[i] = append(s.siteArrs[i], simArr{svc: Resource, class: ClassSingleThird, provs: idsOf([]string{ce.Provider})})
			}
		}
		s.consumed[i] = len(seen)
	}

	n := len(e.names)
	s.siteRows = buildCSR(2*n, func(emit func(row, id int32)) {
		// crit[p] / other[p] hold the last site emitted into p's row, plus
		// one, so each (provider, site) pair lands in exactly one row once.
		crit, other := make([]int32, n), make([]int32, n)
		for i, arrs := range s.siteArrs {
			mark := int32(i) + 1
			for _, a := range arrs {
				if !a.critical() {
					continue
				}
				for _, p := range a.provs {
					if crit[p] != mark {
						crit[p] = mark
						emit(2*p, int32(i))
					}
				}
			}
			for _, a := range arrs {
				for _, p := range a.provs {
					if crit[p] != mark && other[p] != mark {
						other[p] = mark
						emit(2*p+1, int32(i))
					}
				}
			}
		}
	})
	// Every site bitset of a run has words words, so a row of at least that
	// many entries is cheaper to OR in than to set bit by bit.
	words := (len(s.siteArrs) + 63) / 64
	s.dense = make([]bitset, 2*n)
	for r := range s.dense {
		row := s.siteRows.row(int32(r))
		if len(row) == 0 || len(row) < words {
			continue
		}
		d := make(bitset, words)
		for _, i := range row {
			d.set(int(i))
		}
		s.dense[r] = d
	}
	for i, arrs := range s.siteArrs {
		for _, a := range arrs {
			if a.class == ClassMultiThird && len(a.provs) > 0 {
				s.joint = append(s.joint, jointArr{site: int32(i), provs: a.provs})
			}
		}
	}
	s.jointRows = buildCSR(n, func(emit func(row, id int32)) {
		for j, a := range s.joint {
			for _, p := range a.provs {
				emit(p, int32(j))
			}
		}
	})
	return s
}

// arrState evaluates one arrangement against the current provider states.
func arrState(a simArr, st []ProviderState, joint bool) ProviderState {
	worst, all := ProviderUp, len(a.provs) > 0
	for _, p := range a.provs {
		ps := st[p]
		if ps > worst {
			worst = ps
		}
		if ps != ProviderDown {
			all = false
		}
	}
	if worst == ProviderUp {
		return ProviderUp
	}
	switch {
	case a.critical():
		// Critical arrangement: as unhealthy as its unhealthiest provider.
		return worst
	case a.class == ClassMultiThird && joint && all:
		// Redundancy exhausted: every third party of the arrangement is down.
		return ProviderDown
	default:
		// Redundant arrangement: impaired, never lost.
		return ProviderDegraded
	}
}

// providerState evaluates a provider node's own health from its
// arrangements: losing any consumed service takes the provider down (a CDN
// whose sole DNS provider is dark cannot serve), an impaired service
// degrades it.
func (s *OutageSim) providerState(id int32, st []ProviderState, joint bool) ProviderState {
	worst := ProviderUp
	for _, a := range s.provArrs[id] {
		if as := arrState(a, st, joint); as > worst {
			worst = as
			if worst == ProviderDown {
				break
			}
		}
	}
	return worst
}

// cascade runs the outage worklist for targets under o. On return
// sc.state holds every provider's final state and sc.touched lists, once
// each, the providers that left Up; every other provider is Up. Run and
// RunCounts share it, so both answer over the identical fixpoint.
func (s *OutageSim) cascade(targets []int32, o OutageOpts, sc *SimScratch) {
	// Only the previous cascade's touched providers can be off Up. Reset
	// them before any resize: sc.state may have been sized by another
	// simulator with a larger universe.
	for _, p := range sc.touched {
		sc.state[p] = ProviderUp
	}
	touched := sc.touched[:0]
	n := len(s.e.names)
	if len(sc.state) < n {
		sc.state = make([]ProviderState, n)
	}
	state := sc.state[:n]

	targetState := ProviderDown
	if o.Severity > 0 && o.Severity < 1 {
		targetState = ProviderDegraded
	}
	queue := sc.queue[:0]
	for _, id := range targets {
		if state[id] < targetState {
			if state[id] == ProviderUp {
				touched = append(touched, id)
			}
			state[id] = targetState
			queue = append(queue, id)
		}
	}

	// Worklist cascade over the metrics engine's reverse edges. States only
	// escalate and each escalation re-enqueues, so the fixpoint handles
	// provider cycles and converges after at most 2n wakes.
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ed := range s.e.edges[p] {
			// The same service filter the C_p/I_p recursion applies when
			// deciding whether to traverse into a dependent provider.
			if s.via&(1<<uint(ed.svc)) == 0 {
				continue
			}
			k := ed.to
			if state[k] == ProviderDown {
				continue
			}
			if ns := s.providerState(k, state, o.JointFailures); ns > state[k] {
				if state[k] == ProviderUp {
					touched = append(touched, k)
				}
				state[k] = ns
				queue = append(queue, k)
			}
		}
	}
	sc.queue = queue
	sc.touched = touched
}

// markSites unions the rows of the last cascade's touched providers into
// two site bitsets. sc.down gets the sites that lose a service: a critical
// arrangement naming a down provider, or under JointFailures a multi-third
// arrangement whose providers are all down. sc.impaired gets the other
// sites naming a non-Up provider. Their union is exactly the sites with a
// non-Up arrangement, since an arrangement is non-Up exactly when one of
// its providers is; sites in neither are unaffected, and a site's bit may
// be in both. Each touched row is ORed in once, from its dense bitset or
// entry by entry (see unionRow).
func (s *OutageSim) markSites(o OutageOpts, sc *SimScratch) {
	words := (len(s.siteArrs) + 63) / 64
	if cap(sc.impaired) < words {
		sc.impaired = make(bitset, words)
		sc.down = make(bitset, words)
	}
	sc.impaired = sc.impaired[:words]
	sc.down = sc.down[:words]
	clear(sc.impaired)
	clear(sc.down)
	state := sc.state
	for _, p := range sc.touched {
		if state[p] != ProviderDown {
			s.unionRow(sc.impaired, 2*p)
			s.unionRow(sc.impaired, 2*p+1)
			continue
		}
		s.unionRow(sc.down, 2*p)
		s.unionRow(sc.impaired, 2*p+1)
		if !o.JointFailures {
			continue
		}
	arrs:
		for _, j := range s.jointRows.row(p) {
			a := s.joint[j]
			if sc.down.has(int(a.site)) {
				continue
			}
			for _, q := range a.provs {
				if state[q] != ProviderDown {
					continue arrs
				}
			}
			sc.down.set(int(a.site))
		}
	}
}

// Run simulates the outage of targets under o and classifies every site:
// the sites markSites finds affected in full, every other site as
// unaffected with resilience 1. Target names absent from the graph are
// ignored (they exist nowhere, so nothing depends on them); callers wanting
// strict validation check Graph.HasProvider first.
func (s *OutageSim) Run(targets []string, o OutageOpts) *OutageResult {
	var sc SimScratch
	isTarget := make([]bool, len(s.e.names))
	ids := make([]int32, 0, len(targets))
	for _, t := range targets {
		if id, ok := s.e.ids[t]; ok {
			isTarget[id] = true
			ids = append(ids, int32(id))
		}
	}
	s.cascade(ids, o, &sc)
	s.markSites(o, &sc)

	nSites := len(s.g.Sites)
	res := &OutageResult{
		Outcomes:          make([]SiteOutcome, nSites),
		Resilience:        make([]float64, nSites),
		Direct:            make([]bool, nSites),
		LostByService:     make(map[Service]int),
		DegradedByService: make(map[Service]int),
	}
	for i := range res.Resilience {
		res.Resilience[i] = 1
	}
	// Targets are never Up, so a site outside the affected set names no
	// target either: Unaffected, resilience 1 and Direct false all hold.
	for w, down := range sc.down {
		for word := down | sc.impaired[w]; word != 0; {
			i := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			s.classify(i, sc.state, isTarget, o.JointFailures, res)
		}
	}
	res.Unaffected = nSites - res.Down - res.Degraded

	for _, id := range sc.touched {
		switch sc.state[id] {
		case ProviderDown:
			res.DownProviders = append(res.DownProviders, s.e.names[id])
		case ProviderDegraded:
			res.DegradedProviders = append(res.DegradedProviders, s.e.names[id])
		}
	}
	sort.Strings(res.DownProviders)
	sort.Strings(res.DegradedProviders)
	return res
}

// classify evaluates site i against the final provider states and records
// its outcome, resilience, Direct flag and per-service losses in res.
func (s *OutageSim) classify(i int, state []ProviderState, isTarget []bool, joint bool, res *OutageResult) {
	// Per-service status: the worst arrangement state of each consumed
	// service decides whether that service is lost or just impaired.
	var svcState [numServices]ProviderState
	var svcSeen [numServices]bool
	direct := false
	for _, a := range s.siteArrs[i] {
		as := arrState(a, state, joint)
		if int(a.svc) < len(svcState) {
			svcSeen[a.svc] = true
			if as > svcState[a.svc] {
				svcState[a.svc] = as
			}
		}
		if !direct {
			for _, p := range a.provs {
				if isTarget[p] {
					direct = true
					break
				}
			}
		}
	}
	res.Direct[i] = direct
	outcome := SiteUnaffected
	penalty := 0.0
	for svc := range svcState {
		if !svcSeen[svc] {
			continue
		}
		switch svcState[svc] {
		case ProviderDown:
			res.LostByService[Service(svc)]++
			penalty += 1
			outcome = SiteDown
		case ProviderDegraded:
			res.DegradedByService[Service(svc)]++
			penalty += 0.5
			if outcome < SiteDegraded {
				outcome = SiteDegraded
			}
		}
	}
	res.Outcomes[i] = outcome
	if s.consumed[i] > 0 {
		res.Resilience[i] = 1 - penalty/float64(s.consumed[i])
	}
	switch outcome {
	case SiteDown:
		res.Down++
	case SiteDegraded:
		res.Degraded++
	}
}

// numServices sizes the per-site service-status scratch arrays; Service
// values are the canonical 0..len(AllServices)-1 range.
const numServices = 4

// ProviderID resolves a provider name to its simulator id — the currency of
// RunCounts target lists. Sampling loops resolve names once up front and
// then work in pure integers.
func (s *OutageSim) ProviderID(name string) (int32, bool) {
	id, ok := s.e.ids[name]
	return int32(id), ok
}

// ProviderNameOf is the inverse of ProviderID.
func (s *OutageSim) ProviderNameOf(id int32) string {
	return s.e.names[id]
}

// SimScratch holds the reusable per-run state of RunCounts so a sampling
// loop running thousands of simulations allocates nothing after the first.
// A SimScratch must not be shared between concurrent RunCounts calls; give
// each worker its own.
type SimScratch struct {
	state   []ProviderState // per provider id; Up outside touched
	queue   []int32
	touched []int32 // providers the last cascade moved off Up
	// Site bitsets markSites fills: sites/8 bytes each, 2.5 KB at 20K sites.
	down     bitset
	impaired bitset
}

// RunCounts simulates the outage of the given provider ids under o and
// returns only the aggregate outcome counts. It is the Monte-Carlo inner
// loop: the same cascade as Run, after which the counts come straight from
// the provider→site rows of the touched providers — down = |D| and
// degraded = |A \ D|, where A is the sites with an arrangement naming a
// non-Up provider and D ⊆ A the sites that lost a service (see markSites).
// Rows with at least sites/64 entries are ORed in from prebuilt bitsets, so
// a scenario costs O(Σ min(row length, sites/64) over the touched
// providers' rows + sites/64), not O(sites × arrangements), and with a
// warmed SimScratch allocates nothing.
// Unknown ids are the caller's bug; obtain ids via ProviderID.
func (s *OutageSim) RunCounts(targets []int32, o OutageOpts, sc *SimScratch) (down, degraded int) {
	s.cascade(targets, o, sc)
	if len(sc.touched) == 0 {
		return 0, 0
	}
	s.markSites(o, sc)
	for w, d := range sc.down {
		down += bits.OnesCount64(d)
		degraded += bits.OnesCount64(sc.impaired[w] &^ d)
	}
	return down, degraded
}

// ProviderNames returns every provider name the metrics engine (and thus
// the simulator) knows: declared providers, names sites use as third
// parties, private-infrastructure nodes and depended-upon names. Sorted.
func (g *Graph) ProviderNames() []string {
	e := g.Metrics()
	e.initOnce.Do(e.init)
	out := append([]string(nil), e.names...)
	sort.Strings(out)
	return out
}

// HasProvider reports whether name is in the ProviderNames universe — any
// name the metrics engine and the simulator know, including leaf DNS
// providers and private-infrastructure nodes — without copying or sorting
// it.
func (g *Graph) HasProvider(name string) bool {
	e := g.Metrics()
	e.initOnce.Do(e.init)
	_, ok := e.ids[name]
	return ok
}

// EachProviderName calls fn for every ProviderNames entry, in no
// particular order and without copying the universe.
func (g *Graph) EachProviderName(fn func(name string)) {
	e := g.Metrics()
	e.initOnce.Do(e.init)
	for _, n := range e.names {
		fn(n)
	}
}

// ProvidersOfService returns the third-party provider names of svc — the
// candidate set TopProviders ranks: names sites use for svc plus declared
// provider nodes of svc, excluding pure private-infrastructure nodes (a
// site's own CDN or PKI domain), through which impact flows but which are
// not third parties. Sorted.
func (g *Graph) ProvidersOfService(svc Service) []string {
	seen := make(map[string]bool)
	for pname := range g.usersOf[svc] {
		if p, ok := g.Providers[pname]; !ok || p.Service == svc {
			seen[pname] = true
		}
	}
	for pname, p := range g.Providers {
		if p.Service == svc && (len(g.privateUsersOf[pname]) == 0 || g.hasPublicUsers(pname)) {
			seen[pname] = true
		}
	}
	out := make([]string, 0, len(seen))
	for pname := range seen {
		out = append(out, pname)
	}
	sort.Strings(out)
	return out
}
