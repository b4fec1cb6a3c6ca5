package coverage

import (
	"bytes"
	"math/rand"
	"testing"
)

// Scalar reference implementations of the word-at-a-time scans. The
// randomized tests below pin the optimized versions to these.

func classifyRef(bits []uint8) {
	for i, b := range bits {
		if b != 0 {
			bits[i] = bucketLUT[b]
		}
	}
}

func mergeRef(virgin, classified []uint8) Novelty {
	ret := NoNew
	for i, c := range classified {
		if c == 0 {
			continue
		}
		vb := virgin[i]
		if vb&c != 0 {
			if vb == 0xff {
				ret = NewTuples
			} else if ret < NewCounts {
				ret = NewCounts
			}
			virgin[i] = vb &^ c
		}
	}
	return ret
}

// fillMap populates bits with a sparsity profile resembling real
// traces: mostly zero, occasional runs of counts, a few saturated and
// word-boundary-straddling entries.
func fillMap(rng *rand.Rand, bits []uint8) {
	for i := range bits {
		bits[i] = 0
	}
	touched := rng.Intn(len(bits)/4 + 1)
	for t := 0; t < touched; t++ {
		i := rng.Intn(len(bits))
		switch rng.Intn(4) {
		case 0:
			bits[i] = uint8(1 + rng.Intn(255))
		case 1:
			bits[i] = uint8(1 << rng.Intn(8))
		case 2:
			bits[i] = 255
		case 3: // short run crossing word boundaries
			for j := i; j < len(bits) && j < i+3+rng.Intn(12); j++ {
				bits[j] = uint8(1 + rng.Intn(255))
			}
		}
	}
}

func TestClassifyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 7, 8, 9, 63, 64, 100, 1 << 12, 1 << 16} {
		for trial := 0; trial < 25; trial++ {
			a := make([]uint8, size)
			fillMap(rng, a)
			b := append([]uint8(nil), a...)
			Classify(a)
			classifyRef(b)
			if !bytes.Equal(a, b) {
				t.Fatalf("size %d trial %d: word classify diverges from scalar", size, trial)
			}
		}
	}
}

func TestClassifyExhaustiveBytes(t *testing.T) {
	// Every count value in every lane of a word.
	for lane := 0; lane < 8; lane++ {
		for c := 0; c < 256; c++ {
			a := make([]uint8, 16)
			a[lane] = uint8(c)
			b := append([]uint8(nil), a...)
			Classify(a)
			classifyRef(b)
			if !bytes.Equal(a, b) {
				t.Fatalf("lane %d count %d: got %v want %v", lane, c, a[lane], b[lane])
			}
		}
	}
}

func TestMergeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{8, 64, 1 << 10, 1 << 16} {
		v := NewVirgin(size)
		ref := make([]uint8, size)
		for i := range ref {
			ref[i] = 0xff
		}
		trace := make([]uint8, size)
		// Repeated merges against the SAME evolving virgin state: later
		// rounds exercise the partially-consumed (NewCounts) paths.
		for trial := 0; trial < 60; trial++ {
			fillMap(rng, trace)
			Classify(trace)
			got := v.Merge(trace)
			want := mergeRef(ref, trace)
			if got != want {
				t.Fatalf("size %d trial %d: novelty %v want %v", size, trial, got, want)
			}
			if !bytes.Equal(v.bits, ref) {
				t.Fatalf("size %d trial %d: virgin state diverges from scalar", size, trial)
			}
		}
	}
}

func TestBucketLUT16Consistent(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		want := uint16(bucketLUT[i&0xff]) | uint16(bucketLUT[i>>8])<<8
		if bucketLUT16[i] != want {
			t.Fatalf("bucketLUT16[%#x] = %#x, want %#x", i, bucketLUT16[i], want)
		}
	}
}
