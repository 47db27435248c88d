package model

import (
	"math/bits"
)

// BitSet is a fixed-capacity set of small non-negative integers backed by
// packed 64-bit words. It is the dense kernel underneath the contention and
// coloring hot paths: flow sets, clique membership, conflict rows, and
// DSATUR saturation all become word-wise And/Or/PopCount instead of map
// operations.
//
// All binary operations assume the operands were sized over the same
// universe (same word count); shorter operands are treated as
// zero-extended.
type BitSet []uint64

// NewBitSet returns an empty set able to hold values in [0, n).
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set inserts i.
func (b BitSet) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i.
func (b BitSet) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether i is present.
func (b BitSet) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of elements.
func (b BitSet) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Rank returns the number of elements below i: i's position among b's
// elements in ascending order when i is present.
func (b BitSet) Rank(i int) int {
	n := 0
	for _, w := range b[:i>>6] {
		n += bits.OnesCount64(w)
	}
	return n + bits.OnesCount64(b[i>>6]&(1<<(uint(i)&63)-1))
}

// AndCount returns |b ∩ c| without materializing the intersection.
func (b BitSet) AndCount(c BitSet) int {
	n := len(b)
	if len(c) < n {
		n = len(c)
	}
	count := 0
	for i := 0; i < n; i++ {
		count += bits.OnesCount64(b[i] & c[i])
	}
	return count
}

// Or adds every element of c to b. c must not be longer than b.
func (b BitSet) Or(c BitSet) {
	for i, w := range c {
		b[i] |= w
	}
}

// Reset removes all elements.
func (b BitSet) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Equal reports whether b and c hold the same elements.
func (b BitSet) Equal(c BitSet) bool {
	long, short := b, c
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Next returns the least element ≥ i, or −1 if there is none. Walking
// i = Next(0), Next(i+1), … visits the elements in ascending order and sees
// every addition or removal made ahead of i on the way.
func (b BitSet) Next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if word := b[w] >> (uint(i) & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 | bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// ForEach calls fn for every element in ascending order.
func (b BitSet) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Elems appends the elements in ascending order to dst and returns it.
func (b BitSet) Elems(dst []int) []int {
	b.ForEach(func(i int) { dst = append(dst, i) })
	return dst
}
