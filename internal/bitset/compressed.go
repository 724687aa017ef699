// Compressed is the roaring-style companion to the dense Set: the universe
// is split into 2^16-bit chunks and only non-empty chunks are stored, each
// as either a sorted array of 16-bit offsets (sparse) or a 1024-word bitmap
// (dense), with automatic promotion and demotion at the classic 4096-element
// cutoff. At million-subscriber scale a hyper-cell or group that touches a
// few thousand subscribers costs kilobytes instead of the 125 KiB a dense
// vector pins per set, and the fused kernels (WastePairSet, IntersectCountSet)
// walk only the populated chunks.
//
// Every kernel is exact integer arithmetic over the same bits the dense Set
// holds, so results are bit-identical to the dense formulation; the property
// tests in compressed_test.go prove it across promotion/demotion boundaries.
package bitset

import (
	"fmt"
	"math/bits"
	"sort"
)

const (
	// chunkBits is the universe span of one container (a roaring chunk).
	chunkBits = 1 << 16
	// chunkWords is a bitmap container's word count (1024 × 8 B = 8 KiB).
	chunkWords = chunkBits / wordBits
	// arrayCutoff is the maximum cardinality of an array container: above
	// it a bitmap (8 KiB) is smaller than the 2-byte-per-element array and
	// the container is promoted; a Clear dropping back to the cutoff
	// demotes it again.
	arrayCutoff = 4096
)

// container holds one non-empty chunk: exactly one of arr/bits is non-nil.
type container struct {
	key  uint32   // chunk index: bits [key·2^16, (key+1)·2^16)
	card int32    // number of set bits in the chunk
	arr  []uint16 // sorted bit offsets (array container)
	bits []uint64 // chunkWords words (bitmap container)
}

// Compressed is a chunked bit set over the universe [0, Len()). The zero
// value is unusable; construct with NewCompressed or Compress. Unlike the
// dense Set it only pays for populated chunks.
type Compressed struct {
	n  int
	cs []container // sorted by key, no empty containers
}

// NewCompressed returns an empty compressed set over the universe [0, n).
func NewCompressed(n int) *Compressed {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return &Compressed{n: n}
}

// Compress converts a dense Set into its compressed form, choosing the
// container kind chunk by chunk.
func Compress(s *Set) *Compressed {
	c := NewCompressed(s.n)
	words := s.words
	for lo := 0; lo < len(words); lo += chunkWords {
		hi := lo + chunkWords
		if hi > len(words) {
			hi = len(words)
		}
		chunk := words[lo:hi]
		card := 0
		for _, w := range chunk {
			card += bits.OnesCount64(w)
		}
		if card == 0 {
			continue
		}
		ct := container{key: uint32(lo / chunkWords), card: int32(card)}
		if card <= arrayCutoff {
			ct.arr = make([]uint16, 0, card)
			for wi, w := range chunk {
				for w != 0 {
					tz := bits.TrailingZeros64(w)
					ct.arr = append(ct.arr, uint16(wi*wordBits+tz))
					w &= w - 1
				}
			}
		} else {
			ct.bits = make([]uint64, chunkWords)
			copy(ct.bits, chunk)
		}
		c.cs = append(c.cs, ct)
	}
	return c
}

// Len returns the size of the universe (not the number of set bits).
func (c *Compressed) Len() int { return c.n }

// Count returns the number of set bits.
func (c *Compressed) Count() int {
	n := 0
	for i := range c.cs {
		n += int(c.cs[i].card)
	}
	return n
}

// Any reports whether at least one bit is set.
func (c *Compressed) Any() bool { return len(c.cs) > 0 }

// None reports whether the set is empty.
func (c *Compressed) None() bool { return len(c.cs) == 0 }

func (c *Compressed) check(i int) {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, c.n))
	}
}

// find returns the index in cs of the container with the given key, or
// the insertion point with found=false.
func (c *Compressed) find(key uint32) (int, bool) {
	lo, hi := 0, len(c.cs)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cs[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c.cs) && c.cs[lo].key == key
}

// Test reports whether bit i is set.
func (c *Compressed) Test(i int) bool {
	c.check(i)
	ci, ok := c.find(uint32(i / chunkBits))
	if !ok {
		return false
	}
	ct := &c.cs[ci]
	off := uint16(i % chunkBits)
	if ct.bits != nil {
		return ct.bits[off/wordBits]&(1<<(off%wordBits)) != 0
	}
	j := sort.Search(len(ct.arr), func(k int) bool { return ct.arr[k] >= off })
	return j < len(ct.arr) && ct.arr[j] == off
}

// Set sets bit i, promoting the chunk's array container to a bitmap when
// it crosses the cutoff.
func (c *Compressed) Set(i int) {
	c.check(i)
	key := uint32(i / chunkBits)
	off := uint16(i % chunkBits)
	ci, ok := c.find(key)
	if !ok {
		c.cs = append(c.cs, container{})
		copy(c.cs[ci+1:], c.cs[ci:])
		c.cs[ci] = container{key: key, card: 1, arr: []uint16{off}}
		return
	}
	ct := &c.cs[ci]
	if ct.bits != nil {
		w := &ct.bits[off/wordBits]
		m := uint64(1) << (off % wordBits)
		if *w&m == 0 {
			*w |= m
			ct.card++
		}
		return
	}
	j := sort.Search(len(ct.arr), func(k int) bool { return ct.arr[k] >= off })
	if j < len(ct.arr) && ct.arr[j] == off {
		return
	}
	ct.arr = append(ct.arr, 0)
	copy(ct.arr[j+1:], ct.arr[j:])
	ct.arr[j] = off
	ct.card++
	if int(ct.card) > arrayCutoff {
		ct.promote()
	}
}

// Clear clears bit i, demoting a bitmap container back to an array at the
// cutoff and dropping the container entirely when it empties.
func (c *Compressed) Clear(i int) {
	c.check(i)
	key := uint32(i / chunkBits)
	off := uint16(i % chunkBits)
	ci, ok := c.find(key)
	if !ok {
		return
	}
	ct := &c.cs[ci]
	if ct.bits != nil {
		w := &ct.bits[off/wordBits]
		m := uint64(1) << (off % wordBits)
		if *w&m == 0 {
			return
		}
		*w &^= m
		ct.card--
		if int(ct.card) <= arrayCutoff {
			ct.demote()
		}
	} else {
		j := sort.Search(len(ct.arr), func(k int) bool { return ct.arr[k] >= off })
		if j >= len(ct.arr) || ct.arr[j] != off {
			return
		}
		ct.arr = append(ct.arr[:j], ct.arr[j+1:]...)
		ct.card--
	}
	if ct.card == 0 {
		c.cs = append(c.cs[:ci], c.cs[ci+1:]...)
	}
}

// promote converts an array container to a bitmap in place.
func (ct *container) promote() {
	b := make([]uint64, chunkWords)
	for _, off := range ct.arr {
		b[off/wordBits] |= 1 << (off % wordBits)
	}
	ct.bits, ct.arr = b, nil
}

// demote converts a bitmap container to a sorted array in place.
func (ct *container) demote() {
	arr := make([]uint16, 0, ct.card)
	for wi, w := range ct.bits {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			arr = append(arr, uint16(wi*wordBits+tz))
			w &= w - 1
		}
	}
	ct.arr, ct.bits = arr, nil
}

// Clone returns a deep copy of c.
func (c *Compressed) Clone() *Compressed {
	out := &Compressed{n: c.n, cs: make([]container, len(c.cs))}
	for i := range c.cs {
		ct := c.cs[i]
		if ct.arr != nil {
			ct.arr = append([]uint16(nil), ct.arr...)
		}
		if ct.bits != nil {
			ct.bits = append([]uint64(nil), ct.bits...)
		}
		out.cs[i] = ct
	}
	return out
}

// ToSet expands the compressed set into a dense Set.
func (c *Compressed) ToSet() *Set {
	s := New(c.n)
	for i := range c.cs {
		ct := &c.cs[i]
		base := int(ct.key) * chunkWords
		if ct.bits != nil {
			copy(s.words[base:], ct.bits[:c.chunkLen(ct)])
			continue
		}
		for _, off := range ct.arr {
			s.words[base+int(off)/wordBits] |= 1 << (off % wordBits)
		}
	}
	return s
}

// chunkLen is the number of dense words the chunk actually spans (the last
// chunk of the universe may be shorter than chunkWords).
func (c *Compressed) chunkLen(ct *container) int {
	total := (c.n + wordBits - 1) / wordBits
	base := int(ct.key) * chunkWords
	if total-base < chunkWords {
		return total - base
	}
	return chunkWords
}

// Equal reports whether c and t contain exactly the same bits.
func (c *Compressed) Equal(t *Compressed) bool {
	if c.n != t.n || len(c.cs) != len(t.cs) {
		return false
	}
	for i := range c.cs {
		a, b := &c.cs[i], &t.cs[i]
		if a.key != b.key || a.card != b.card {
			return false
		}
		// Same cardinality forces the same container kind (both sides use
		// the identical cutoff rule), except transiently never: promote and
		// demote fire on every crossing.
		if (a.bits == nil) != (b.bits == nil) {
			return false
		}
		if a.bits != nil {
			for w := range a.bits {
				if a.bits[w] != b.bits[w] {
					return false
				}
			}
			continue
		}
		for j := range a.arr {
			if a.arr[j] != b.arr[j] {
				return false
			}
		}
	}
	return true
}

// ForEach calls fn for every set bit in increasing order. If fn returns
// false, iteration stops early.
func (c *Compressed) ForEach(fn func(i int) bool) {
	for i := range c.cs {
		ct := &c.cs[i]
		base := int(ct.key) * chunkBits
		if ct.bits != nil {
			for wi, w := range ct.bits {
				for w != 0 {
					tz := bits.TrailingZeros64(w)
					if !fn(base + wi*wordBits + tz) {
						return
					}
					w &= w - 1
				}
			}
			continue
		}
		for _, off := range ct.arr {
			if !fn(base + int(off)) {
				return
			}
		}
	}
}

// Indices returns the sorted slice of set bit positions.
func (c *Compressed) Indices() []int {
	out := make([]int, 0, c.Count())
	c.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

func (c *Compressed) checkSameSet(t *Set) {
	if c.n != t.n {
		panic(fmt.Sprintf("bitset: mismatched lengths %d and %d", c.n, t.n))
	}
}

func (c *Compressed) checkSame(t *Compressed) {
	if c.n != t.n {
		panic(fmt.Sprintf("bitset: mismatched lengths %d and %d", c.n, t.n))
	}
}

// IntersectCountSet returns |c ∩ t| against a dense set, touching only c's
// populated chunks.
func (c *Compressed) IntersectCountSet(t *Set) int {
	c.checkSameSet(t)
	x := 0
	for i := range c.cs {
		ct := &c.cs[i]
		base := int(ct.key) * chunkWords
		if ct.bits != nil {
			x += andCountWords(ct.bits[:c.chunkLen(ct)], t.words[base:base+c.chunkLen(ct)])
			continue
		}
		tw := t.words[base:]
		for _, off := range ct.arr {
			if tw[off/wordBits]&(1<<(off%wordBits)) != 0 {
				x++
			}
		}
	}
	return x
}

// WastePairSet returns (|c ∖ t|, |t ∖ c|) against a dense set in one fused
// pass: populated chunks pay an intersection, and t's bits in chunks c does
// not populate are pure popcounts. The second count requires touching every
// word of t, so the pass is O(Ns/64) like the dense kernel — callers that
// track cardinalities should prefer IntersectCountSet (|c ∖ t| = |c| − x).
func (c *Compressed) WastePairSet(t *Set) (cNotT, tNotC int) {
	c.checkSameSet(t)
	pos := 0 // next dense word not yet accounted
	tW := t.words
	for i := range c.cs {
		ct := &c.cs[i]
		base := int(ct.key) * chunkWords
		for ; pos < base; pos++ {
			tNotC += bits.OnesCount64(tW[pos])
		}
		span := c.chunkLen(ct)
		x := 0
		tOnes := 0
		if ct.bits != nil {
			for w := 0; w < span; w++ {
				v := tW[base+w]
				x += bits.OnesCount64(ct.bits[w] & v)
				tOnes += bits.OnesCount64(v)
			}
		} else {
			for w := 0; w < span; w++ {
				tOnes += bits.OnesCount64(tW[base+w])
			}
			for _, off := range ct.arr {
				if tW[base+int(off)/wordBits]&(1<<(off%wordBits)) != 0 {
					x++
				}
			}
		}
		cNotT += int(ct.card) - x
		tNotC += tOnes - x
		pos = base + span
	}
	for ; pos < len(tW); pos++ {
		tNotC += bits.OnesCount64(tW[pos])
	}
	return cNotT, tNotC
}

// WastePair returns (|c ∖ t|, |t ∖ c|) between two compressed sets by a
// merge over their populated chunks: chunks present on one side only
// contribute their full cardinality, shared chunks pay one intersection.
func (c *Compressed) WastePair(t *Compressed) (cNotT, tNotC int) {
	c.checkSame(t)
	i, j := 0, 0
	for i < len(c.cs) && j < len(t.cs) {
		a, b := &c.cs[i], &t.cs[j]
		switch {
		case a.key < b.key:
			cNotT += int(a.card)
			i++
		case a.key > b.key:
			tNotC += int(b.card)
			j++
		default:
			x := containerIntersect(a, b)
			cNotT += int(a.card) - x
			tNotC += int(b.card) - x
			i++
			j++
		}
	}
	for ; i < len(c.cs); i++ {
		cNotT += int(c.cs[i].card)
	}
	for ; j < len(t.cs); j++ {
		tNotC += int(t.cs[j].card)
	}
	return cNotT, tNotC
}

// IntersectCount returns |c ∩ t| between two compressed sets.
func (c *Compressed) IntersectCount(t *Compressed) int {
	c.checkSame(t)
	x := 0
	i, j := 0, 0
	for i < len(c.cs) && j < len(t.cs) {
		a, b := &c.cs[i], &t.cs[j]
		switch {
		case a.key < b.key:
			i++
		case a.key > b.key:
			j++
		default:
			x += containerIntersect(a, b)
			i++
			j++
		}
	}
	return x
}

// containerIntersect returns the intersection cardinality of two containers
// with the same key.
func containerIntersect(a, b *container) int {
	if a.bits != nil && b.bits != nil {
		return andCountWords(a.bits, b.bits)
	}
	if a.bits == nil && b.bits == nil {
		// Sorted-array gallop: walk the shorter, binary-search the longer
		// when wildly unbalanced, else a linear merge.
		x, y := a.arr, b.arr
		if len(x) > len(y) {
			x, y = y, x
		}
		if len(y) > 32*len(x) {
			n := 0
			for _, v := range x {
				k := sort.Search(len(y), func(i int) bool { return y[i] >= v })
				if k < len(y) && y[k] == v {
					n++
				}
			}
			return n
		}
		n, i, j := 0, 0, 0
		for i < len(x) && j < len(y) {
			switch {
			case x[i] < y[j]:
				i++
			case x[i] > y[j]:
				j++
			default:
				n++
				i++
				j++
			}
		}
		return n
	}
	arr, bm := a, b
	if arr.bits != nil {
		arr, bm = b, a
	}
	n := 0
	for _, off := range arr.arr {
		if bm.bits[off/wordBits]&(1<<(off%wordBits)) != 0 {
			n++
		}
	}
	return n
}

// UnionWithCount sets c = c ∪ t in place and returns |c ∪ t|, promoting
// containers that cross the cutoff — the compressed analogue of the dense
// Set's fused merge kernel.
func (c *Compressed) UnionWithCount(t *Compressed) int {
	c.checkSame(t)
	out := make([]container, 0, len(c.cs)+len(t.cs))
	i, j := 0, 0
	for i < len(c.cs) && j < len(t.cs) {
		a, b := &c.cs[i], &t.cs[j]
		switch {
		case a.key < b.key:
			out = append(out, *a)
			i++
		case a.key > b.key:
			out = append(out, cloneContainer(b))
			j++
		default:
			out = append(out, unionContainers(a, b))
			i++
			j++
		}
	}
	out = append(out, c.cs[i:]...)
	for ; j < len(t.cs); j++ {
		out = append(out, cloneContainer(&t.cs[j]))
	}
	c.cs = out
	return c.Count()
}

func cloneContainer(ct *container) container {
	out := *ct
	if ct.arr != nil {
		out.arr = append([]uint16(nil), ct.arr...)
	}
	if ct.bits != nil {
		out.bits = append([]uint64(nil), ct.bits...)
	}
	return out
}

// unionContainers merges two same-key containers into a fresh one with the
// canonical kind for its cardinality.
func unionContainers(a, b *container) container {
	out := container{key: a.key}
	if a.bits != nil || b.bits != nil || int(a.card)+int(b.card) > arrayCutoff {
		bm := make([]uint64, chunkWords)
		fill := func(ct *container) {
			if ct.bits != nil {
				for w := range ct.bits {
					bm[w] |= ct.bits[w]
				}
				return
			}
			for _, off := range ct.arr {
				bm[off/wordBits] |= 1 << (off % wordBits)
			}
		}
		fill(a)
		fill(b)
		card := 0
		for _, w := range bm {
			card += bits.OnesCount64(w)
		}
		out.card = int32(card)
		out.bits = bm
		if card <= arrayCutoff {
			out.demote()
		}
		return out
	}
	arr := make([]uint16, 0, int(a.card)+int(b.card))
	i, j := 0, 0
	for i < len(a.arr) && j < len(b.arr) {
		switch {
		case a.arr[i] < b.arr[j]:
			arr = append(arr, a.arr[i])
			i++
		case a.arr[i] > b.arr[j]:
			arr = append(arr, b.arr[j])
			j++
		default:
			arr = append(arr, a.arr[i])
			i++
			j++
		}
	}
	arr = append(arr, a.arr[i:]...)
	arr = append(arr, b.arr[j:]...)
	out.arr = arr
	out.card = int32(len(arr))
	return out
}

// String renders the set as a compact list like "{1, 5, 9}".
func (c *Compressed) String() string {
	return c.ToSet().String()
}
