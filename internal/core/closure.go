package core

import "slices"

// This file holds the closure form of the outage simulator. Without
// JointFailures every provider's and every site's health is a join (a
// maximum over up < degraded < down) of the states it reads, and the
// cascade's service gate belongs to the dependent provider (every edge
// into a provider carries its service), not to the targets. So the
// cascade of a target set is the join of each target's own cascade: a
// provider is down after the outage of A ∪ B exactly when it is down after
// A's or after B's, and the same holds for degraded. A site's outcome reads
// its arrangements the same way, so the sites an outage takes down are the
// union of the sites each failure unit takes down alone, and likewise the
// affected (down or degraded) sites. A Monte-Carlo sweep therefore runs
// each failure unit's cascade once, keeps its provider states, the sites it
// takes down and the sites it only degrades, and counts a scenario as
// |∪ down| and |∪ degraded \ ∪ down| over the units that fired. A unit's
// degraded sites are few where its down sites are many, so they are held
// apart rather than as the affected sites, which would repeat every down
// site.
//
// Redundancy exhaustion breaks the join: a multi-third arrangement whose
// providers fail in two different units is lost together but only degraded
// by either alone. Under JointFailures a scenario therefore repairs the
// union. The joint rule never rates an arrangement below the non-joint
// one, so the joint cascade's fixpoint is the least fixpoint of the joint
// rule above the join of the units' non-joint provider states, and a
// worklist started from that join reaches it. Only a provider with a
// multi-third arrangement of its own can rate higher under the joint rule
// than the join holds, so the repair evaluates those (jointProvs), runs the
// worklist from whatever they raise and ORs in the rows of every provider
// it raises. Last, it marks the sites of every joint set whose providers
// are all down.

// Closure is the outcome of one failure unit's outage on its own, without
// redundancy exhaustion: the providers it moves off Up with their states,
// the sites it takes down and the sites it only degrades. For one provider
// at full severity the down sites are its I_p members, and the two sets
// together its C_p members.
type Closure struct {
	provs          []int32
	states         []ProviderState // states[i] is provs[i]'s
	down, degraded rowSet
}

// Bytes is the memory the closure's provider states and site sets hold.
func (c *Closure) Bytes() int {
	return 5*len(c.provs) + c.down.bytes() + c.degraded.bytes()
}

// Closure runs the outage of targets under o without JointFailures once
// and keeps its provider states and its down and degraded sites.
// o.JointFailures is ignored here: UnionCounts applies it to the union.
func (s *OutageSim) Closure(targets []int32, o OutageOpts, sc *SimScratch) Closure {
	o.JointFailures = false
	s.cascade(targets, o, sc)
	s.markSites(o, sc)
	for w, d := range sc.down {
		sc.impaired[w] &^= d
	}
	c := Closure{provs: slices.Clone(sc.touched), states: make([]ProviderState, len(sc.touched))}
	for i, p := range c.provs {
		c.states[i] = sc.state[p]
	}
	c.down, c.degraded = bitsetRowSet(sc.down), bitsetRowSet(sc.impaired)
	// A dense set holds the scratch bitset itself; keep a copy instead.
	c.down.dense, c.degraded.dense = slices.Clone(c.down.dense), slices.Clone(c.degraded.dense)
	return c
}

// UnionCounts counts the outage of every unit in cs together under o, from
// their closures: down = |∪ down| and degraded = |∪ degraded \ ∪ down|,
// after the repair above when o.JointFailures is set. It equals the
// cascade's counts over the units' targets under o, and with a warmed
// SimScratch allocates nothing.
func (s *OutageSim) UnionCounts(cs []*Closure, o OutageOpts, sc *SimScratch) (down, degraded int) {
	switch {
	case len(cs) == 0:
		return 0, 0
	case len(cs) == 1 && !o.JointFailures:
		return cs[0].down.n, cs[0].degraded.n
	}
	sc.sizeSites(s.nSites())
	for _, c := range cs {
		c.down.unionInto(sc.down)
		c.degraded.unionInto(sc.impaired)
	}
	if o.JointFailures {
		s.joinStates(cs, sc)
		s.repair(sc)
	}
	return sc.counts()
}

// joinStates makes sc.state the join of the closures' provider states.
func (s *OutageSim) joinStates(cs []*Closure, sc *SimScratch) {
	state := s.resetStates(sc)
	for _, c := range cs {
		for i, p := range c.provs {
			if st := c.states[i]; st > state[p] {
				if state[p] == ProviderUp {
					sc.touched = append(sc.touched, p)
				}
				state[p] = st
			}
		}
	}
}

// repair raises the joined non-joint state in sc to the joint fixpoint and
// marks what that adds to the site bitsets: the rows of every provider it
// raises, then every exhausted joint set. A provider is evaluated under
// the same service gate as the cascade's edges into it.
func (s *OutageSim) repair(sc *SimScratch) {
	state := sc.state
	for _, k := range s.jointProvs {
		if s.via&(1<<uint(s.provSvc[k])) == 0 || state[k] == ProviderDown {
			continue
		}
		if ns := s.providerState(k, state, true); ns > state[k] {
			sc.raise(k, ns)
		}
	}
	s.propagate(true, true, sc)
	s.markExhausted(sc)
}
