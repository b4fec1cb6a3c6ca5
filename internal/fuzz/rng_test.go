package fuzz

import (
	"math"
	"math/rand"
	"testing"
)

// rngBounds are the Intn bounds the equivalence test cycles through:
// small and power-of-two bounds (the masking path), the bounds the
// mutator uses, and bounds near 2^31, where Int31n's rejection loop
// draws again about half the time.
var rngBounds = []int{
	1, 2, 3, 7, 8, 10, 35, 100, 256, 513, 1023, 1025, 1 << 16, 1<<16 + 1,
	1 << 30, 1<<30 + 1, 3 << 29, math.MaxInt32 - 1, math.MaxInt32,
}

// TestRNGMatchesMathRand: the generator is math/rand's stream, value
// for value, across the 607-draw prefill boundary and for every kind
// of bound. math/rand reduces seeds mod 2^31-1, so -7 and 2^40 cover
// its seed folding.
func TestRNGMatchesMathRand(t *testing.T) {
	const draws = 1 << 20
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		g, r := newRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; g.draws < draws; i++ {
			if i%3 == 0 {
				if a, b := g.Uint64(), r.Uint64(); a != b {
					t.Fatalf("seed %d: Uint64 at draw %d = %#x, math/rand %#x", seed, g.draws-1, a, b)
				}
				continue
			}
			n := rngBounds[i%len(rngBounds)]
			if a, b := g.Intn(n), r.Intn(n); a != b {
				t.Fatalf("seed %d: Intn(%d) before draw %d = %d, math/rand %d", seed, n, g.draws, a, b)
			}
		}
	}
}

// TestFastModMatchesRemainder: the division-free remainder equals v % n
// for every tabled bound, at the ends of the 31-bit range Int31 draws
// from, around multiples of n and on random values.
func TestFastModMatchesRemainder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := uint32(2); n < uint32(len(modMagic)); n++ {
		vs := []uint32{0, 1, n - 1, n, n + 1, 2*n - 1, math.MaxInt32 - n, math.MaxInt32 - 1, math.MaxInt32}
		for i := 0; i < 64; i++ {
			vs = append(vs, uint32(r.Int31()))
		}
		for _, v := range vs {
			if got, want := fastMod(v, n), v%n; got != want {
				t.Fatalf("fastMod(%d, %d) = %d, want %d", v, n, got, want)
			}
		}
	}
}

// TestRNGRestoreContinuesStream: restoring a generator's ring and draw
// count onto a differently seeded one continues the stream exactly,
// before the prefill is used up, at its boundary, and long after.
func TestRNGRestoreContinuesStream(t *testing.T) {
	for _, at := range []uint64{0, 1, 100, rngLen - rngTap, rngLen - 1, rngLen, rngLen + 1, 5000} {
		a := newRNG(99)
		for a.draws < at {
			a.Uint64()
		}
		b := newRNG(12345)
		b.restore(a.state(), a.draws)
		for i := 0; i < 3*rngLen; i++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("restored at draw %d: streams diverge %d draws later", at, i)
			}
		}
	}
}

func TestRNGIntnRejectsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			newRNG(1).Intn(n)
		}()
	}
}

// BenchmarkRNGIntn prices one mutator-sized draw through the generator
// and through math/rand's *Rand.
func BenchmarkRNGIntn(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		g := newRNG(1)
		for b.Loop() {
			g.Intn(100)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for b.Loop() {
			r.Intn(100)
		}
	})
}
