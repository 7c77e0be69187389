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
// condensation — and the graph's resolved arrangement table
// (arrangements.go), so both answer over the identical structure. That
// makes the headline consistency property hold by construction: with one
// failed provider at full severity, the set of down sites equals I_p
// membership and the set of affected (down or degraded) sites equals C_p
// membership. The property tests in simulate_test.go and internal/incident
// assert exactly that.
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
// Sites are classified from the provider side. The graph's first
// simulation, under any traversal, inverts every site arrangement into
// provider→site rows that every traversal shares, and after a cascade only
// the rows of the providers that left Up are visited. A row with at least as
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

// simTables is the simulator's via-independent state, built once per graph
// from its arrangement table: every traversal's OutageSim shares it. Row i
// of sites holds Graph.Sites[i]'s arrangements.
//
// Provider→site rows: a site is affected exactly when a non-Up provider
// appears in one of its arrangements, and loses a service when a down
// provider appears in a critical arrangement or, under JointFailures, when
// every provider of one of its multi-third arrangements is down. siteRows
// row 2p lists the sites with a critical arrangement naming provider p, row
// 2p+1 the other sites naming it; jointRows row p indexes joint. dense[r]
// is siteRows row r as a site bitset when the row has at least as many
// entries as the bitset has words, else nil. engineSite maps a site to the
// index of its bit in the metrics engine's site sets: the two orders part
// once a delta removes or adds sites.
type simTables struct {
	*arrTable
	sites      arrRows
	engineSite []int32 // Graph.Sites index → metrics-engine site id
	siteRows   csr
	dense      []bitset
	joint      []jointArr
	jointRows  csr
}

// jointArr is one site's multi-third arrangement, the only kind redundancy
// exhaustion (OutageOpts.JointFailures) can take down.
type jointArr struct {
	site  int32
	provs []int32
}

func (s *simTables) nSites() int { return len(s.sites.off) - 1 }

// OutageSim is the simulator for one (Graph, TraversalOpts) pair: the
// graph's shared simulator tables plus the traversal's service filter. Each
// Run is pure integer work over the providers the cascade reaches. Obtain
// one via Graph.OutageSim. An OutageSim is safe for concurrent Runs.
type OutageSim struct {
	*simTables
	via uint8
}

// unionRow ORs the sites of siteRows row r into b: word by word from the
// row's dense bitset when it has one, one bit per entry otherwise.
func (s *simTables) unionRow(b bitset, r int32) {
	if d := s.dense[r]; d != nil {
		b.unionWith(d)
		return
	}
	for _, i := range s.siteRows.row(r) {
		b.set(int(i))
	}
}

// OutageSim returns a simulator for opts. The tables behind it are built
// on the graph's first simulation, under any traversal, and shared by all:
// the graph is immutable after NewGraph, so they never invalidate.
func (g *Graph) OutageSim(opts TraversalOpts) *OutageSim {
	g.simOnce.Do(func() { g.sim = newSimTables(g) })
	return &OutageSim{simTables: g.sim, via: viaBits(opts)}
}

func newSimTables(g *Graph) *simTables {
	s := &simTables{arrTable: g.arrangements(), sites: arrRows{off: []int32{0}}, engineSite: make([]int32, len(g.Sites))}
	for i, site := range g.Sites {
		s.addSite(&s.sites, site)
		s.engineSite[i] = s.e.siteID[site.Name]
	}
	rows := &s.sites
	n, nSites := len(s.e.names), len(g.Sites)
	s.siteRows = buildCSR(2*n, func(emit func(row, id int32)) {
		// crit[p] / other[p] hold the last site emitted into p's row, plus
		// one, so each (provider, site) pair lands in exactly one row once.
		crit, other := make([]int32, n), make([]int32, n)
		for i := 0; i < nSites; i++ {
			arrs, mark := rows.row(i), int32(i)+1
			for _, a := range arrs {
				if !a.critical() {
					continue
				}
				for _, p := range rows.provs(a) {
					if crit[p] != mark {
						crit[p] = mark
						emit(2*p, int32(i))
					}
				}
			}
			for _, a := range arrs {
				for _, p := range rows.provs(a) {
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
	words := (nSites + 63) / 64
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
	for i := 0; i < nSites; i++ {
		for _, a := range rows.row(i) {
			if DepClass(a.class) == ClassMultiThird && a.hi > a.lo {
				s.joint = append(s.joint, jointArr{site: int32(i), provs: rows.provs(a)})
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

// arrState evaluates arrangement a, with provider ids provs, against the
// current provider states.
func arrState(a arr, provs []int32, st []ProviderState, joint bool) ProviderState {
	worst, all := ProviderUp, len(provs) > 0
	for _, p := range provs {
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
	case DepClass(a.class) == ClassMultiThird && joint && all:
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
	for _, a := range s.prov.row(int(id)) {
		if as := arrState(a, s.prov.provs(a), st, joint); as > worst {
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
	words := (s.nSites() + 63) / 64
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
// strict validation check Graph.HasProvider first. Each call allocates a
// fresh scratch and a fresh result, about 10 bytes per site; a loop of
// runs reuses both through RunInto.
func (s *OutageSim) Run(targets []string, o OutageOpts) *OutageResult {
	res := new(OutageResult)
	s.RunInto(targets, o, new(SimScratch), res)
	return res
}

// RunInto is Run over a caller-owned scratch and result: res is
// overwritten in full, reusing its slices and maps, so a warmed pair
// allocates only when the down or degraded provider lists outgrow their
// last length. A SimScratch or OutageResult must not be shared between
// concurrent runs.
func (s *OutageSim) RunInto(targets []string, o OutageOpts, sc *SimScratch, res *OutageResult) {
	n := len(s.e.names)
	if len(sc.isTarget) < n {
		sc.isTarget = make([]bool, n)
	}
	isTarget := sc.isTarget[:n]
	ids := sc.ids[:0]
	for _, t := range targets {
		if id, ok := s.e.ids[t]; ok {
			isTarget[id] = true
			ids = append(ids, int32(id))
		}
	}
	s.cascade(ids, o, sc)
	s.markSites(o, sc)

	nSites := s.nSites()
	res.reset(nSites)
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
	for _, id := range ids {
		isTarget[id] = false
	}
	sc.ids = ids
}

// reset sizes r for nSites sites, every one unaffected with resilience 1.
func (r *OutageResult) reset(nSites int) {
	if cap(r.Outcomes) < nSites {
		r.Outcomes = make([]SiteOutcome, nSites)
		r.Resilience = make([]float64, nSites)
		r.Direct = make([]bool, nSites)
	}
	r.Outcomes, r.Resilience, r.Direct = r.Outcomes[:nSites], r.Resilience[:nSites], r.Direct[:nSites]
	clear(r.Outcomes)
	clear(r.Direct)
	for i := range r.Resilience {
		r.Resilience[i] = 1
	}
	r.Down, r.Degraded, r.Unaffected = 0, 0, 0
	if r.LostByService == nil {
		r.LostByService = make(map[Service]int)
		r.DegradedByService = make(map[Service]int)
	} else {
		clear(r.LostByService)
		clear(r.DegradedByService)
	}
	r.DownProviders = r.DownProviders[:0]
	r.DegradedProviders = r.DegradedProviders[:0]
}

// CheckImpact holds res, a run of provider p alone at full severity, against
// the metrics engine's I_p under the simulator's traversal: it returns
// |I_p| and whether res's down sites are exactly I_p's members. Equal sizes
// plus down ⊆ I_p make the sets equal, so the check reads the engine's
// bitset through engineSite and allocates nothing.
func (s *OutageSim) CheckImpact(p string, res *OutageResult) (impact int, match bool) {
	var set bitset
	if st := s.e.entryVia(s.via).stateImp; st != nil {
		if id, ok := s.e.ids[p]; ok {
			c := st.comp[id]
			set, impact = st.sets[c], st.counts[c]
		}
	}
	if impact != res.Down {
		return impact, false
	}
	for i, out := range res.Outcomes {
		if out != SiteDown {
			continue
		}
		// A component a delta left clean keeps its narrower bitset, so an
		// id past its end is not in I_p.
		if id := int(s.engineSite[i]); id >= len(set)*64 || !set.has(id) {
			return impact, false
		}
	}
	return impact, true
}

// classify evaluates site i against the final provider states and records
// its outcome, resilience, Direct flag and per-service losses in res.
func (s *OutageSim) classify(i int, state []ProviderState, isTarget []bool, joint bool, res *OutageResult) {
	// Per-service status: the worst arrangement state of each consumed
	// service decides whether that service is lost or just impaired.
	var svcState [numServices]ProviderState
	var svcSeen [numServices]bool
	direct := false
	for _, a := range s.sites.row(i) {
		svcSeen[a.svc] = true
		if as := arrState(a, s.sites.provs(a), state, joint); as > svcState[a.svc] {
			svcState[a.svc] = as
		}
		if !direct {
			for _, p := range s.sites.provs(a) {
				if isTarget[p] {
					direct = true
					break
				}
			}
		}
	}
	res.Direct[i] = direct
	outcome := SiteUnaffected
	penalty, consumed := 0.0, 0
	for svc := range svcState {
		if !svcSeen[svc] {
			continue
		}
		consumed++
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
	if consumed > 0 {
		res.Resilience[i] = 1 - penalty/float64(consumed)
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

// SimScratch holds the reusable per-run state of RunCounts and RunInto so a
// sampling loop running thousands of simulations allocates nothing after
// the first. A SimScratch must not be shared between concurrent runs; give
// each worker its own.
type SimScratch struct {
	state    []ProviderState // per provider id; Up outside touched
	isTarget []bool          // per provider id; RunInto clears what it set
	ids      []int32         // RunInto's resolved targets
	queue    []int32
	touched  []int32 // providers the last cascade moved off Up
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

// HasProvider reports whether name is one the metrics engine and the
// simulator know: a declared provider, a name sites use as a third party
// (leaf DNS providers included), a private-infrastructure node or a
// depended-upon name.
func (g *Graph) HasProvider(name string) bool {
	e := g.Metrics()
	e.initOnce.Do(e.init)
	_, ok := e.ids[name]
	return ok
}

// EachProviderName calls fn for every name HasProvider accepts, in no
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
// not third parties. A name declared for another service is never a
// candidate. Read off the direct-user table's counts. Sorted.
func (g *Graph) ProvidersOfService(svc Service) []string {
	names, users := g.tableUsers()
	var out []string
	for u, name := range names {
		c := &users[u]
		if p, ok := g.Providers[name]; ok {
			if p.Service != svc || (c.private > 0 && !c.usedPublicly()) {
				continue
			}
		} else if !c.usedFor(svc) {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
