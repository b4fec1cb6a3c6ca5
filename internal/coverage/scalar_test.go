package coverage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Scalar reference implementations of the classify and merge passes.
// The randomized tests below pin the sparse versions, which visit only
// a map's touched entries, to these full-map loops.

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

// mapOf returns a map holding bits' counts, touched in index order.
func mapOf(bits []uint8) *Map {
	m := NewMap(len(bits))
	for i, c := range bits {
		if c != 0 {
			m.bits[i] = c
			m.dirty = append(m.dirty, uint32(i))
		}
	}
	return m
}

func TestClassifyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 8, 64, 1 << 12, 1 << 16} {
		for trial := 0; trial < 25; trial++ {
			a := make([]uint8, size)
			fillMap(rng, a)
			m := mapOf(a)
			m.ClassifySparse()
			classifyRef(a)
			if !bytes.Equal(m.Bytes(), a) {
				t.Fatalf("size %d trial %d: sparse classify diverges from scalar", size, trial)
			}
		}
	}
}

func TestClassifyExhaustiveBytes(t *testing.T) {
	// Every count value at every entry of a small map, reached by Add.
	for entry := 0; entry < 8; entry++ {
		for c := 0; c < 256; c++ {
			m := NewMap(16)
			for k := 0; k < c; k++ {
				m.Add(uint32(entry))
			}
			want := append([]uint8(nil), m.Bytes()...)
			m.ClassifySparse()
			classifyRef(want)
			if !bytes.Equal(m.Bytes(), want) {
				t.Fatalf("entry %d count %d: got %v want %v", entry, c, m.Bytes()[entry], want[entry])
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
			m := mapOf(trace)
			m.ClassifySparse()
			classifyRef(trace)
			got := v.MergeSparse(m)
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

// TestSparseMatchesDense: classifying and merging a map built by Add
// must match the scalar loops over the same counts kept in a dense
// array, for any access pattern.
func TestSparseMatchesDense(t *testing.T) {
	err := quick.Check(func(indices []uint16, repeats uint8) bool {
		size := 1 << 10
		sparse := NewMap(size)
		dense := make([]uint8, size)
		for r := 0; r <= int(repeats%4); r++ {
			for _, raw := range indices {
				i := uint32(raw) % uint32(size)
				sparse.Add(i)
				if dense[i] != 255 {
					dense[i]++
				}
			}
		}
		classifyRef(dense)
		sparse.ClassifySparse()
		if !bytes.Equal(sparse.Bytes(), dense) {
			return false
		}
		// Novelty and virgin-state agreement.
		v := NewVirgin(size)
		ref := make([]uint8, size)
		for i := range ref {
			ref[i] = 0xff
		}
		if mergeRef(ref, dense) != v.MergeSparse(sparse) || !bytes.Equal(v.bits, ref) {
			return false
		}
		// And idempotence of the sparse path.
		return v.MergeSparse(sparse) == NoNew
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}
