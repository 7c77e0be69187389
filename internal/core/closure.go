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
// each failure unit's cascade once, keeps its two site sets, and counts a
// scenario as |∪ down| and |∪ affected \ ∪ down| over the units that fired.
//
// Redundancy exhaustion breaks the join: a multi-third arrangement whose
// providers fail in two different units is lost together but only degraded
// by either alone. So a closure refuses JointFailures, and a joint sweep
// keeps the full cascade (RunCounts).

// Closure is the outcome of one failure unit's outage on its own: the
// sites it takes down and the sites it affects (down or degraded). For one
// provider at full severity they are its I_p and C_p members.
type Closure struct {
	down, affected rowSet
}

// Bytes is the memory the closure's two site sets hold.
func (c *Closure) Bytes() int { return c.down.bytes() + c.affected.bytes() }

// Closure runs the outage of targets under o once and keeps its down and
// affected sites. o.JointFailures must be off, since redundancy exhaustion
// is not a join (see above); Closure panics otherwise.
func (s *OutageSim) Closure(targets []int32, o OutageOpts, sc *SimScratch) Closure {
	if o.JointFailures {
		panic("core: a closure needs JointFailures off")
	}
	s.cascade(targets, o, sc)
	s.markSites(o, sc)
	sc.impaired.unionWith(sc.down)
	down, affected := bitsetRowSet(sc.down), bitsetRowSet(sc.impaired)
	// A dense set holds the scratch bitset itself; keep a copy instead.
	down.dense, affected.dense = slices.Clone(down.dense), slices.Clone(affected.dense)
	return Closure{down: down, affected: affected}
}

// UnionCounts counts the outage of every unit in cs together, from their
// closures alone: down = |∪ down| and degraded = |∪ affected \ ∪ down|.
// It equals RunCounts over the units' targets under the closures' opts,
// and with a warmed SimScratch allocates nothing.
func (s *OutageSim) UnionCounts(cs []*Closure, sc *SimScratch) (down, degraded int) {
	switch len(cs) {
	case 0:
		return 0, 0
	case 1:
		return cs[0].down.n, cs[0].affected.n - cs[0].down.n
	}
	sc.sizeSites(s.nSites())
	for _, c := range cs {
		c.down.unionInto(sc.down)
		c.affected.unionInto(sc.impaired)
	}
	return sc.counts()
}
