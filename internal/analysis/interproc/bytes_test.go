package interproc

import (
	"testing"

	"repro/internal/analysis"
)

func TestByteSetAddRangeMerging(t *testing.T) {
	var s ByteSet
	if !s.Empty() {
		t.Fatal("zero value should be empty")
	}
	s.AddRange(0, 3)
	s.AddRange(8, 8)
	s.AddRange(12, 15)
	if got := s.String(); got != "[0-3,8,12-15]" {
		t.Fatalf("String = %q", got)
	}
	// Adjacency merges: 4 touches [0,3].
	s.AddRange(4, 5)
	if got := s.String(); got != "[0-5,8,12-15]" {
		t.Fatalf("after adjacency merge: %q", got)
	}
	// Overlap across several ranges collapses them.
	s.AddRange(5, 13)
	if got := s.String(); got != "[0-15]" {
		t.Fatalf("after overlap merge: %q", got)
	}
	for _, o := range []int64{0, 7, 15} {
		if !s.Contains(o) {
			t.Errorf("Contains(%d) = false", o)
		}
	}
	if s.Contains(16) || s.Contains(-1) {
		t.Error("contains out-of-set offsets")
	}
}

func TestByteSetAddRangeChangeReporting(t *testing.T) {
	var s ByteSet
	if !s.AddRange(2, 4) {
		t.Error("first add should report change")
	}
	if s.AddRange(3, 3) {
		t.Error("covered add should report no change")
	}
	if s.AddRange(10, 5) {
		t.Error("empty range should report no change")
	}
	if !s.AddRange(-3, 1) {
		t.Error("clamped add extending the set should report change")
	}
	if s.Contains(-1) {
		t.Error("negative offsets must be clamped away")
	}
}

func TestByteSetCoalescingIsSound(t *testing.T) {
	var s ByteSet
	// maxRanges+4 widely separated singletons force coalescing.
	var offs []int64
	for i := 0; i < maxRanges+4; i++ {
		o := int64(i * 100)
		offs = append(offs, o)
		s.AddRange(o, o)
	}
	if len(s.R) > maxRanges {
		t.Fatalf("cap not enforced: %d ranges", len(s.R))
	}
	for _, o := range offs {
		if !s.Contains(o) {
			t.Errorf("coalescing dropped offset %d", o)
		}
	}
}

func TestByteSetDegradesToAll(t *testing.T) {
	var s ByteSet
	s.AddRange(0, offsetCap+5)
	if !s.All {
		t.Fatal("huge range should degrade to All")
	}
	if s.String() != "*" || !s.Contains(1<<40) {
		t.Error("All behavior wrong")
	}
	if s.AddRange(1, 2) {
		t.Error("adding to All should be a no-op")
	}
}

func TestByteSetUnionWith(t *testing.T) {
	var a, b ByteSet
	a.AddRange(0, 2)
	b.AddRange(10, 12)
	if !a.UnionWith(&b) {
		t.Error("union adding offsets should report change")
	}
	if a.UnionWith(&b) {
		t.Error("repeated union should be stable")
	}
	all := ByteSet{All: true}
	if !a.UnionWith(&all) || !a.All {
		t.Error("union with All should become All")
	}
}

func TestFromInterval(t *testing.T) {
	if s := FromInterval(analysis.Interval{Lo: 1, Hi: 0}); !s.Empty() {
		t.Error("bottom interval should give empty set")
	}
	s := FromInterval(analysis.Interval{Lo: 3, Hi: 7})
	if s.String() != "[3-7]" {
		t.Errorf("FromInterval = %s", s.String())
	}
	if s = FromInterval(analysis.Interval{Lo: -10, Hi: 2}); s.String() != "[0-2]" {
		t.Errorf("negative lo not clamped: %s", s.String())
	}
}
