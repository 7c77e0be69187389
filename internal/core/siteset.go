package core

import (
	"math/bits"
	"slices"
)

// rowSet is the package's one retained form of a set of site ids: a metrics
// engine component's dependent sites (C_p or I_p members), an outage
// simulator row (the sites naming one provider), and a failure unit's
// closure. Its members are sorted ids while the set has fewer of them than
// a bitset over the id space has words, and that bitset otherwise, so it
// costs at most twice the bytes of its int32 ids (8 bytes a word, at most
// one word per member) and at most the bitset's bytes. n is its size either
// way.
//
// A dense set's bitset may be narrower than a later id space: a metrics
// component a delta left clean keeps the bitset it was built with while
// site ids are appended, so an id past its end is not a member.
type rowSet struct {
	dense bitset
	ids   []int32
	n     int
}

// denseAt is the rule that decides a set's form: n members over words
// bitset words are held as the bitset when n >= words.
func denseAt(n, words int) bool { return n > 0 && n >= words }

// bitsetRowSet returns the members of b in their form. A dense set keeps b
// itself, so the caller hands b over.
func bitsetRowSet(b bitset) rowSet {
	set := rowSet{dense: b, n: b.count()}
	if denseAt(set.n, len(b)) {
		return set
	}
	return rowSet{ids: set.appendTo(make([]int32, 0, set.n)), n: set.n}
}

// idRowSet returns ids, sorted distinct site ids below 64*words, as a set
// in their form. A sparse set keeps ids itself.
func idRowSet(ids []int32, words int) rowSet {
	n := len(ids)
	if !denseAt(n, words) {
		return rowSet{ids: ids[:n:n], n: n}
	}
	b := make(bitset, words)
	for _, i := range ids {
		b.set(int(i))
	}
	return rowSet{dense: b, n: n}
}

// has reports whether site id i is a member.
func (rs *rowSet) has(i int32) bool {
	if rs.dense != nil {
		return int(i) < 64*len(rs.dense) && rs.dense.has(int(i))
	}
	_, ok := slices.BinarySearch(rs.ids, i)
	return ok
}

// unionInto ORs the set into b, which is at least as wide: word by word
// when dense, bit by bit otherwise.
func (rs *rowSet) unionInto(b bitset) {
	if rs.dense != nil {
		b.unionWith(rs.dense)
		return
	}
	for _, i := range rs.ids {
		b.set(int(i))
	}
}

// appendTo appends the members to out in ascending order.
func (rs *rowSet) appendTo(out []int32) []int32 {
	if rs.dense == nil {
		return append(out, rs.ids...)
	}
	for w, word := range rs.dense {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

func (rs *rowSet) bytes() int { return 8*len(rs.dense) + 4*len(rs.ids) }

// bitset is a fixed-width set over site indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[uint(i)/64] |= 1 << (uint(i) % 64) }

func (b bitset) has(i int) bool { return b[uint(i)/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) unionWith(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
