package coverage_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/coverage"
)

func TestMapBasics(t *testing.T) {
	m := coverage.NewMap(64)
	if m.Len() != 64 {
		t.Fatalf("len = %d", m.Len())
	}
	m.Add(3)
	m.Add(3)
	m.Add(64 + 3) // wraps
	m.Add(10)
	if m.Bytes()[3] != 3 {
		t.Errorf("entry 3 = %d, want 3 (wrapping add)", m.Bytes()[3])
	}
	if m.CountNonZero() != 2 {
		t.Errorf("nonzero = %d", m.CountNonZero())
	}
	idx := m.Indices()
	if len(idx) != 2 || idx[0] != 3 || idx[1] != 10 {
		t.Errorf("indices = %v", idx)
	}
	m.Reset()
	if m.CountNonZero() != 0 {
		t.Error("reset failed")
	}
}

func TestMapSaturates(t *testing.T) {
	m := coverage.NewMap(64)
	for i := 0; i < 1000; i++ {
		m.Add(0)
	}
	if m.Bytes()[0] != 255 {
		t.Errorf("saturation: %d", m.Bytes()[0])
	}
}

func TestMapSizeValidation(t *testing.T) {
	for _, bad := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMap(%d) did not panic", bad)
				}
			}()
			coverage.NewMap(bad)
		}()
	}
}

// classified returns the map an execution leaves for MergeSparse: one
// entry per count, entry i hit counts[i] times, then classified.
// len(counts) must be a power of two.
func classified(counts []uint8) *coverage.Map {
	m := coverage.NewMap(len(counts))
	for i, c := range counts {
		for k := 0; k < int(c); k++ {
			m.Add(uint32(i))
		}
	}
	m.ClassifySparse()
	return m
}

func TestClassifyBuckets(t *testing.T) {
	cases := map[uint8]uint8{
		0: 0, 1: 1, 2: 2, 3: 4, 4: 8, 7: 8, 8: 16, 15: 16,
		16: 32, 31: 32, 32: 64, 127: 64, 128: 128, 255: 128,
	}
	for in, want := range cases {
		if got := classified([]uint8{in}).Bytes()[0]; got != want {
			t.Errorf("classify(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestClassifyProperties(t *testing.T) {
	// Bucketing is monotone-ish in powers and produces single-bit
	// masks.
	err := quick.Check(func(c uint8) bool {
		b := classified([]uint8{c}).Bytes()[0]
		if c == 0 {
			return b == 0
		}
		// Exactly one bit set.
		return b != 0 && b&(b-1) == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestVirginMerge(t *testing.T) {
	v := coverage.NewVirgin(8)
	trace := make([]uint8, 8)
	trace[1] = 1
	if nov := v.MergeSparse(classified(trace)); nov != coverage.NewTuples {
		t.Fatalf("first merge: %v", nov)
	}
	if nov := v.MergeSparse(classified(trace)); nov != coverage.NoNew {
		t.Fatalf("repeat merge: %v", nov)
	}
	// Same entry, new bucket: counts as NewCounts.
	trace[1] = 2
	if nov := v.MergeSparse(classified(trace)); nov != coverage.NewCounts {
		t.Fatalf("new bucket: %v", nov)
	}
	// New entry beats new count.
	trace2 := make([]uint8, 8)
	trace2[1] = 3
	trace2[5] = 1
	if nov := v.MergeSparse(classified(trace2)); nov != coverage.NewTuples {
		t.Fatalf("mixed: %v", nov)
	}
}

// TestVirginMergeIdempotent is the novelty-consumption property: after
// any merge, re-merging the same classified trace reports NoNew.
func TestVirginMergeIdempotent(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		size := 64
		v := coverage.NewVirgin(size)
		trace := make([]uint8, size)
		for i, b := range raw {
			trace[i%size] = b
		}
		m := classified(trace)
		v.MergeSparse(m)
		return v.MergeSparse(m) == coverage.NoNew
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestVirginMonotone: merging a superset trace after its subset yields
// novelty exactly when the superset adds entries or buckets.
func TestVirginMonotone(t *testing.T) {
	v := coverage.NewVirgin(16)
	a := make([]uint8, 16)
	a[3] = 1
	v.MergeSparse(classified(a))
	b := make([]uint8, 16)
	b[3] = 1
	b[7] = 1
	if v.MergeSparse(classified(b)) != coverage.NewTuples {
		t.Error("superset not novel")
	}
	if v.MergeSparse(classified(b)) != coverage.NoNew {
		t.Error("second superset merge novel")
	}
}

func TestDirtyTracking(t *testing.T) {
	m := coverage.NewMap(64)
	m.Add(5)
	m.Add(5)
	m.Add(9)
	if len(m.Dirty()) != 2 {
		t.Errorf("dirty = %v", m.Dirty())
	}
	m.Reset()
	if len(m.Dirty()) != 0 || m.Bytes()[5] != 0 || m.Bytes()[9] != 0 {
		t.Error("reset did not clear dirty entries")
	}
	// Saturation does not duplicate dirty entries.
	for i := 0; i < 300; i++ {
		m.Add(7)
	}
	if len(m.Dirty()) != 1 || m.Bytes()[7] != 255 {
		t.Errorf("saturating adds: dirty=%v val=%d", m.Dirty(), m.Bytes()[7])
	}
}

// TestTryAddMatchesAdd pins the call-free add the bytecode machine
// uses. Over random index streams (four hot cells among cold indices
// that wrap the map), TryAdd, with a Reserve whenever it reports a full
// touched list, leaves the bytes and the touch order Add leaves, and
// every count saturates at 255. TryAdd refuses only a first touch on a
// full list, and a refused TryAdd changes nothing.
func TestTryAddMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 50; round++ {
		want, got := coverage.NewMap(256), coverage.NewMap(256)
		hits := make([]int, 256)
		refused := 0
		for i := 0; i < 2000; i++ {
			idx := uint32(rng.Intn(4))
			if rng.Intn(4) == 0 {
				idx = rng.Uint32()
			}
			hits[idx&255]++
			want.Add(idx)
			if !got.TryAdd(idx) {
				refused++
				before := append([]uint8(nil), got.Bytes()...)
				touched := append([]uint32(nil), got.Dirty()...)
				if before[idx&255] != 0 || len(touched) != cap(got.Dirty()) {
					t.Fatalf("round %d: TryAdd(%d) refused a touched cell or a list with room", round, idx)
				}
				if got.TryAdd(idx) || !bytes.Equal(got.Bytes(), before) || !slices.Equal(got.Dirty(), touched) {
					t.Fatalf("round %d: a refused TryAdd(%d) changed the map", round, idx)
				}
				got.Reserve(1 + rng.Intn(3))
				if !got.TryAdd(idx) {
					t.Fatalf("round %d: TryAdd(%d) refused after Reserve", round, idx)
				}
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) || !slices.Equal(got.Dirty(), want.Dirty()) {
				t.Fatalf("round %d, add %d: TryAdd left %v touched, Add %v", round, i, got.Dirty(), want.Dirty())
			}
		}
		if refused == 0 || slices.Max(hits) <= 255 {
			t.Fatalf("round %d: the touched list never filled or no cell saturated", round)
		}
		for cell, n := range hits {
			if c := got.Bytes()[cell]; int(c) != min(n, 255) {
				t.Fatalf("round %d: cell %d reads %d after %d adds", round, cell, c, n)
			}
		}
	}
}

// TestVirginCount pins the incremental consumed counter: Count must
// equal the number of cells with bits != 0xff after any mix of merges,
// bucket upgrades, and checkpoint round-trips.
func TestVirginCount(t *testing.T) {
	v := coverage.NewVirgin(16)
	if v.Count() != 0 {
		t.Fatal("fresh map should count 0")
	}
	trace := make([]uint8, 16)
	trace[2] = 1
	trace[9] = 1
	v.MergeSparse(classified(trace))
	if v.Count() != 2 {
		t.Fatalf("Count = %d after 2 new cells, want 2", v.Count())
	}
	// Re-merging and upgrading a bucket touch no new cells.
	v.MergeSparse(classified(trace))
	trace[2] = 3
	v.MergeSparse(classified(trace))
	if v.Count() != 2 {
		t.Fatalf("Count = %d after re-merge/bucket upgrade, want 2", v.Count())
	}
	// A genuinely new cell increments.
	trace[14] = 1
	v.MergeSparse(classified(trace))
	if v.Count() != 3 {
		t.Fatalf("Count = %d after third cell, want 3", v.Count())
	}

	// Checkpoint round-trip preserves the count.
	cells := v.Cells()
	if len(cells) != v.Count() {
		t.Fatalf("Cells len %d != Count %d", len(cells), v.Count())
	}
	v2 := coverage.NewVirgin(16)
	if err := v2.SetCells(cells); err != nil {
		t.Fatal(err)
	}
	if v2.Count() != v.Count() {
		t.Fatalf("restored Count = %d, want %d", v2.Count(), v.Count())
	}
	if err := v2.SetCells(nil); err != nil {
		t.Fatal(err)
	}
	if v2.Count() != 0 {
		t.Fatalf("SetCells(nil) Count = %d, want 0", v2.Count())
	}
}

// TestVirginCountMatchesCells is the property form: after arbitrary
// merges the incremental counter equals len(Cells()).
func TestVirginCountMatchesCells(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		size := 32
		v := coverage.NewVirgin(size)
		trace := make([]uint8, size)
		for i, b := range raw {
			trace[i%size] = b
			if i%7 == 6 {
				v.MergeSparse(classified(trace))
			}
		}
		v.MergeSparse(classified(trace))
		return v.Count() == len(v.Cells())
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// benchMap returns a default-size map touching one entry in 64, each
// with a random hit count: the sparse traces campaigns classify.
func benchMap() *coverage.Map {
	rng := rand.New(rand.NewSource(4))
	m := coverage.NewMap(coverage.DefaultMapSize)
	for i := 0; i < coverage.DefaultMapSize; i += 64 {
		for k := 1 + rng.Intn(255); k > 0; k-- {
			m.Add(uint32(i))
		}
	}
	return m
}

// BenchmarkCoverageClassify measures the hit-count bucketing pass over
// a map's touched entries.
func BenchmarkCoverageClassify(b *testing.B) {
	m := benchMap()
	b.SetBytes(int64(m.CountNonZero()))
	for i := 0; i < b.N; i++ {
		m.ClassifySparse()
	}
}

// BenchmarkVirginMerge measures the novelty scan over a classified
// map's touched entries.
func BenchmarkVirginMerge(b *testing.B) {
	v := coverage.NewVirgin(coverage.DefaultMapSize)
	m := benchMap()
	m.ClassifySparse()
	b.SetBytes(int64(m.CountNonZero()))
	for i := 0; i < b.N; i++ {
		v.MergeSparse(m)
	}
}
