// Package bitset provides a dense, fixed-capacity bit set used throughout the
// clustering library as the subscriber membership vector s(a) ∈ {0,1}^Ns of
// the ICDCS 2002 paper. The hot operations of every clustering algorithm —
// expected-waste distances — reduce to AND-NOT population counts, so the
// representation is a flat []uint64 with branch-free word loops.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the universe [0, Len()). The zero value is an
// empty set of length zero; use New to create a set with capacity.
//
// All binary operations (Union, Intersect, AndNotCount, ...) require both
// operands to have the same length; they panic otherwise, because mixing
// universes is always a programming error in this library.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set over the universe [0, n) with all bits clear.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices builds a set over [0, n) with the given bits set.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Set(i)
	}
	return s
}

// Len returns the size of the universe (not the number of set bits).
func (s *Set) Len() int { return s.n }

// check panics if i is outside the universe.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

func (s *Set) checkSame(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: mismatched lengths %d and %d", s.n, t.n))
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int { return onesCountWords(s.words) }

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// UnionWith sets s = s ∪ t in place.
func (s *Set) UnionWith(t *Set) {
	s.checkSame(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith sets s = s ∩ t in place.
func (s *Set) IntersectWith(t *Set) {
	s.checkSame(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// Union returns a new set s ∪ t.
func (s *Set) Union(t *Set) *Set {
	c := s.Clone()
	c.UnionWith(t)
	return c
}

// Intersect returns a new set s ∩ t.
func (s *Set) Intersect(t *Set) *Set {
	c := s.Clone()
	c.IntersectWith(t)
	return c
}

// Equal reports whether s and t contain exactly the same bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// AndNotCount returns |s ∖ t|, the number of bits set in s but not in t.
// This is the inner loop of the paper's expected-waste distance d(a, b).
func (s *Set) AndNotCount(t *Set) int {
	s.checkSame(t)
	return andNotCountWords(s.words, t.words)
}

// WastePair returns (|s ∖ t|, |t ∖ s|) in a single fused word loop. The
// expected-waste distance needs both AND-NOT counts; computing them
// together halves the memory traffic of two AndNotCount passes.
func (s *Set) WastePair(t *Set) (sNotT, tNotS int) {
	s.checkSame(t)
	return wastePairWords(s.words, t.words)
}

// UnionWithCount sets s = s ∪ t in place and returns the resulting |s ∪ t|,
// fusing UnionWith and Count into one pass.
func (s *Set) UnionWithCount(t *Set) int {
	s.checkSame(t)
	c := 0
	for i, w := range t.words {
		u := s.words[i] | w
		s.words[i] = u
		c += bits.OnesCount64(u)
	}
	return c
}

// IntersectCount returns |s ∩ t| without allocating.
func (s *Set) IntersectCount(t *Set) int {
	s.checkSame(t)
	return andCountWords(s.words, t.words)
}

// IsSubsetOf reports whether every bit of s is also set in t.
func (s *Set) IsSubsetOf(t *Set) bool {
	s.checkSame(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in increasing order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the sorted slice of set bit positions.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Hash returns a 64-bit hash of the set's contents, suitable for
// hyper-cell coalescing buckets. Equal sets always hash equally. The loop
// folds whole words through a splitmix64-style mixer — 8× fewer multiply
// steps than the previous byte-at-a-time FNV-1a — and is deterministic
// across runs, so coalescing buckets are stable.
func (s *Set) Hash() uint64 {
	const prime = 1099511628211 // FNV-1a 64-bit prime
	h := uint64(14695981039346656037)
	for _, w := range s.words {
		h = (h ^ mix64(w)) * prime
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap invertible avalanche so that
// sparse word values still flip about half the hash bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// String renders the set as a compact list like "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
