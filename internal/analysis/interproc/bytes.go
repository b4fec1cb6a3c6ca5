package interproc

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// maxRanges caps the number of disjoint ranges a ByteSet keeps exact.
// Beyond it, neighbouring ranges are coalesced (an over-approximation),
// which bounds the lattice height and keeps the fixpoint cheap.
const maxRanges = 16

// offsetCap is the largest input offset tracked exactly. Interval
// bounds above it (typically widened loop indices) mean "any offset",
// so the set degrades to All instead of carrying astronomical ranges.
const offsetCap = 1 << 20

// ByteRange is an inclusive range of input byte offsets.
type ByteRange struct{ Lo, Hi int64 }

// ByteSet over-approximates a set of input byte offsets as sorted,
// disjoint, non-adjacent inclusive ranges, with All as the top element
// (every offset; used when offsets are statically unbounded). The zero
// value is the empty set.
type ByteSet struct {
	All bool
	R   []ByteRange
}

// Empty reports whether the set holds no offsets.
func (s *ByteSet) Empty() bool { return !s.All && len(s.R) == 0 }

// Contains reports whether offset o is in the set.
func (s *ByteSet) Contains(o int64) bool {
	if s.All {
		return true
	}
	for _, r := range s.R {
		if o < r.Lo {
			return false
		}
		if o <= r.Hi {
			return true
		}
	}
	return false
}

// AddRange unions the inclusive range [lo, hi] into s, reporting
// whether s changed. Negative lo is clamped to 0; hi beyond offsetCap
// (or an empty range) degrades to All / no-op as appropriate.
func (s *ByteSet) AddRange(lo, hi int64) bool {
	if s.All {
		return false
	}
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		return false
	}
	if hi >= offsetCap {
		s.All = true
		s.R = nil
		return true
	}
	// Merge with any overlapping or adjacent ranges. The result is a
	// fresh slice: TV values are copied structurally all over the
	// solver, and never mutating a shared backing array is what makes
	// those plain copies safe (copy-on-write).
	out := make([]ByteRange, 0, len(s.R)+1)
	inserted := false
	changed := true
	for _, r := range s.R {
		switch {
		case r.Hi+1 < lo:
			out = append(out, r)
		case hi+1 < r.Lo:
			if !inserted {
				out = append(out, ByteRange{lo, hi})
				inserted = true
			}
			out = append(out, r)
		default:
			// Overlap/adjacency: absorb into the pending range.
			if r.Lo <= lo && hi <= r.Hi {
				changed = false // already covered
			}
			if r.Lo < lo {
				lo = r.Lo
			}
			if r.Hi > hi {
				hi = r.Hi
			}
		}
	}
	if !inserted {
		out = append(out, ByteRange{lo, hi})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	s.R = out
	if len(s.R) > maxRanges {
		// Coalesce the pair with the smallest gap until under the cap:
		// a sound widening that keeps the tightest hull.
		for len(s.R) > maxRanges {
			best, bestGap := 0, int64(math.MaxInt64)
			for i := 0; i+1 < len(s.R); i++ {
				if g := s.R[i+1].Lo - s.R[i].Hi; g < bestGap {
					best, bestGap = i, g
				}
			}
			s.R[best].Hi = s.R[best+1].Hi
			s.R = append(s.R[:best+1], s.R[best+2:]...)
		}
	}
	return changed
}

// UnionWith adds o's offsets to s, reporting whether s changed.
func (s *ByteSet) UnionWith(o *ByteSet) bool {
	if s.All {
		return false
	}
	if o.All {
		s.All = true
		s.R = nil
		return true
	}
	changed := false
	for _, r := range o.R {
		if s.AddRange(r.Lo, r.Hi) {
			changed = true
		}
		if s.All {
			return true
		}
	}
	return changed
}

// FromInterval converts a statically-derived index interval into a
// byte set: bottom is empty, unbounded (or huge) tops are All.
func FromInterval(iv analysis.Interval) ByteSet {
	var s ByteSet
	if iv.IsBottom() {
		return s
	}
	s.AddRange(iv.Lo, iv.Hi)
	return s
}

// String renders the set compactly: "*" for All, "-" for empty,
// otherwise "[0-3,8,12-15]".
func (s *ByteSet) String() string {
	if s.All {
		return "*"
	}
	if len(s.R) == 0 {
		return "-"
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, r := range s.R {
		if i > 0 {
			b.WriteByte(',')
		}
		if r.Lo == r.Hi {
			fmt.Fprintf(&b, "%d", r.Lo)
		} else {
			fmt.Fprintf(&b, "%d-%d", r.Lo, r.Hi)
		}
	}
	b.WriteByte(']')
	return b.String()
}
