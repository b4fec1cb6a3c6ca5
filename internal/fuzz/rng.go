package fuzz

import (
	"math"
	"math/bits"
	"math/rand"
)

// math/rand's source is the additive lagged Fibonacci generator
//
//	out[k] = out[k-607] + out[k-273]  (mod 2^64)
//
// started from a table-driven initial state. rngLen and rngTap are its
// lags.
const (
	rngLen = 607
	rngTap = 273
)

// rng is the campaign's random stream: math/rand's source, output for
// output, with its whole state in one checkpointable ring. It takes
// the first rngLen outputs from rand.NewSource(seed) and computes every
// later one from the recurrence, so the ring always holds the next
// rngLen outputs: slot k mod rngLen holds out[k] for every k from
// draws to draws+rngLen-1. A snapshot stores the ring and the draw
// count, and restoring copies them back in constant time, however old
// the campaign is.
type rng struct {
	ring  [rngLen]uint64
	draws uint64
	// i is the slot of out[draws], j that of out[draws+rngLen-rngTap].
	i, j int
}

func newRNG(seed int64) *rng {
	src := rand.NewSource(seed).(rand.Source64)
	g := &rng{j: rngLen - rngTap}
	for k := range g.ring {
		g.ring[k] = src.Uint64()
	}
	return g
}

// Uint64 returns the next output, as math/rand's Source64.Uint64 does.
func (g *rng) Uint64() uint64 {
	v := g.ring[g.i]
	// out[k+rngLen] = out[k] + out[k+rngLen-rngTap] takes the slot of
	// out[k], which is being drawn now.
	g.ring[g.i] = v + g.ring[g.j]
	if g.i++; g.i == rngLen {
		g.i = 0
	}
	if g.j++; g.j == rngLen {
		g.j = 0
	}
	g.draws++
	return v
}

// Intn returns a value in [0, n), draw for draw what math/rand's
// (*Rand).Intn returns for 0 < n < 2^31 (its Int31n algorithm). It
// panics outside that range.
func (g *rng) Intn(n int) int {
	if n <= 0 || n > math.MaxInt32 {
		panic("fuzz: rng.Intn bound outside (0, 2^31)")
	}
	if n&(n-1) == 0 {
		return int(g.int31()) & (n - 1)
	}
	v := g.int31()
	// Int31n draws again while v exceeds 2^31-1 - 2^31%n, which only a
	// v among the top n values can, so only those pay the division.
	if v > math.MaxInt32-int32(n) {
		max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
		for v > max {
			v = g.int31()
		}
	}
	if n < len(modMagic) {
		return int(fastMod(uint32(v), uint32(n)))
	}
	return int(v % int32(n))
}

// modMagic[n] is ^uint64(0)/n + 1, the constant fastMod divides by n
// with, for every bound below 1024: every bound the mutator draws
// under, since inputs are at most 512 bytes.
var modMagic = func() (t [1024]uint64) {
	for n := 2; n < len(t); n++ {
		t[n] = ^uint64(0)/uint64(n) + 1
	}
	return t
}()

// fastMod returns v % n for 2 <= n < len(modMagic) without a division:
// the high word of (modMagic[n]*v mod 2^64) * n, exact for every 32-bit
// v (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation").
func fastMod(v, n uint32) uint32 {
	hi, _ := bits.Mul64(modMagic[n]*uint64(v), uint64(n))
	return uint32(hi)
}

// int31 is math/rand's Int31: the top 31 bits of a 63-bit draw.
func (g *rng) int31() int32 { return int32(g.Uint64() << 1 >> 33) }

// state returns a copy of the ring for a snapshot.
func (g *rng) state() []uint64 { return append([]uint64(nil), g.ring[:]...) }

// restore sets the stream to a snapshot's ring, which
// Snapshot.Validate has checked is rngLen words, and draw count.
func (g *rng) restore(state []uint64, draws uint64) {
	copy(g.ring[:], state)
	g.draws = draws
	g.i = int(draws % rngLen)
	g.j = (g.i + rngLen - rngTap) % rngLen
}
