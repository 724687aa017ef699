package bitset

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// TestQuickBlockedKernelsMatchNaive proves the unrolled word loops compute
// exactly what the single-word reference loops compute, for every length
// (including the 1..3 word tails the unrolling peels off).
func TestQuickBlockedKernelsMatchNaive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 67 // covers 0..66: all tail residues and a few blocks
		a := randWords(rng, n)
		b := randWords(rng, n)
		if ab, ba := wastePairWords(a, b); func() bool {
			wab, wba := wastePairWordsNaive(a, b)
			return ab != wab || ba != wba
		}() {
			return false
		}
		if andCountWords(a, b) != andCountWordsNaive(a, b) {
			return false
		}
		sum := 0
		for _, w := range a {
			sum += popcountNaive(w)
		}
		if onesCountWords(a) != sum {
			return false
		}
		andnot := 0
		for i := range a {
			andnot += popcountNaive(a[i] &^ b[i])
		}
		return andNotCountWords(a, b) == andnot
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// wastePairWordsNaive is the pre-unrolling reference loop for the bench
// guard and the equality property tests.
func wastePairWordsNaive(a, b []uint64) (aNotB, bNotA int) {
	b = b[:len(a)]
	for i, w := range a {
		v := b[i]
		aNotB += bits.OnesCount64(w &^ v)
		bNotA += bits.OnesCount64(v &^ w)
	}
	return aNotB, bNotA
}

// andCountWordsNaive is the single-word reference for andCountWords.
func andCountWordsNaive(a, b []uint64) int {
	b = b[:len(a)]
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// popcountNaive is a from-first-principles bit count, independent of
// math/bits, so the property test does not assume the thing it checks.
func popcountNaive(w uint64) int {
	c := 0
	for ; w != 0; w &= w - 1 {
		c++
	}
	return c
}

func TestScratchPoolReuse(t *testing.T) {
	s := GetScratch()
	b := s.Ints(128)
	if len(b) != 128 {
		t.Fatalf("Ints(128) len = %d", len(b))
	}
	b[0], b[127] = 1, 2
	b2 := s.Ints(64)
	if len(b2) != 64 {
		t.Fatalf("Ints(64) len = %d", len(b2))
	}
	if &b[0] != &b2[0] {
		t.Fatal("shrinking Ints reallocated")
	}
	s.Release()
}

// BenchmarkBlockedVsNaive is the guard the unrolled kernels are held to: if
// a refactor makes the blocked form slower than the naive loop, the split
// shows up here side by side.
func BenchmarkBlockedVsNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{64, 1024, 16384} {
		x := randWords(rng, n)
		y := randWords(rng, n)
		b.Run(fmt.Sprintf("wastePair/blocked/words=%d", n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				sinkA, sinkB = wastePairWords(x, y)
			}
		})
		b.Run(fmt.Sprintf("wastePair/naive/words=%d", n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				sinkA, sinkB = wastePairWordsNaive(x, y)
			}
		})
		b.Run(fmt.Sprintf("andCount/blocked/words=%d", n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				sinkA = andCountWords(x, y)
			}
		})
		b.Run(fmt.Sprintf("andCount/naive/words=%d", n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				sinkA = andCountWordsNaive(x, y)
			}
		})
	}
}

var sinkA, sinkB int
