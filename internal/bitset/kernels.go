package bitset

import (
	"math/bits"
	"sync"
)

// This file holds the word-loop kernels every set operation reduces to.
// Each is unrolled into fixed 4-word blocks: the popcounts of a block are
// accumulated into independent counters, which breaks the loop-carried
// dependency chain and gives the compiler straight-line bodies it can
// schedule across the POPCNT latency (and vectorize where available). The
// single-word reference loops live in kernels_test.go: the property tests
// prove equality with them and the BenchmarkBlockedVsNaive guard keeps the
// blocked forms from regressing below them.

// onesCountWords returns popcount(a).
func onesCountWords(a []uint64) int {
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(a); i += 4 {
		c0 += bits.OnesCount64(a[i])
		c1 += bits.OnesCount64(a[i+1])
		c2 += bits.OnesCount64(a[i+2])
		c3 += bits.OnesCount64(a[i+3])
	}
	for ; i < len(a); i++ {
		c0 += bits.OnesCount64(a[i])
	}
	return c0 + c1 + c2 + c3
}

// andCountWords returns popcount(a & b). len(b) must be ≥ len(a).
func andCountWords(a, b []uint64) int {
	b = b[:len(a)]
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(a); i += 4 {
		c0 += bits.OnesCount64(a[i] & b[i])
		c1 += bits.OnesCount64(a[i+1] & b[i+1])
		c2 += bits.OnesCount64(a[i+2] & b[i+2])
		c3 += bits.OnesCount64(a[i+3] & b[i+3])
	}
	for ; i < len(a); i++ {
		c0 += bits.OnesCount64(a[i] & b[i])
	}
	return c0 + c1 + c2 + c3
}

// andNotCountWords returns popcount(a &^ b). len(b) must be ≥ len(a).
func andNotCountWords(a, b []uint64) int {
	b = b[:len(a)]
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(a); i += 4 {
		c0 += bits.OnesCount64(a[i] &^ b[i])
		c1 += bits.OnesCount64(a[i+1] &^ b[i+1])
		c2 += bits.OnesCount64(a[i+2] &^ b[i+2])
		c3 += bits.OnesCount64(a[i+3] &^ b[i+3])
	}
	for ; i < len(a); i++ {
		c0 += bits.OnesCount64(a[i] &^ b[i])
	}
	return c0 + c1 + c2 + c3
}

// wastePairWords returns (popcount(a &^ b), popcount(b &^ a)) in one fused
// pass. len(b) must be ≥ len(a).
func wastePairWords(a, b []uint64) (aNotB, bNotA int) {
	b = b[:len(a)]
	var a0, a1, b0, b1 int
	i := 0
	for ; i+4 <= len(a); i += 4 {
		w0, v0 := a[i], b[i]
		w1, v1 := a[i+1], b[i+1]
		w2, v2 := a[i+2], b[i+2]
		w3, v3 := a[i+3], b[i+3]
		a0 += bits.OnesCount64(w0&^v0) + bits.OnesCount64(w1&^v1)
		a1 += bits.OnesCount64(w2&^v2) + bits.OnesCount64(w3&^v3)
		b0 += bits.OnesCount64(v0&^w0) + bits.OnesCount64(v1&^w1)
		b1 += bits.OnesCount64(v2&^w2) + bits.OnesCount64(v3&^w3)
	}
	for ; i < len(a); i++ {
		a0 += bits.OnesCount64(a[i] &^ b[i])
		b0 += bits.OnesCount64(b[i] &^ a[i])
	}
	return a0 + a1, b0 + b1
}

// Scratch is a pooled []int buffer for per-worker counters (the K-means
// nearest-group scans). Pooling through a pointer type keeps Get/Put
// themselves allocation-free in steady state.
type Scratch struct{ ints []int }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled buffer whose Ints(n) view has length n.
// Release it when done.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Ints returns the buffer resized to length n (contents undefined).
func (s *Scratch) Ints(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, n)
	}
	s.ints = s.ints[:n]
	return s.ints
}

// Release returns the buffer to the pool. The slices obtained from Ints
// must not be used afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }
