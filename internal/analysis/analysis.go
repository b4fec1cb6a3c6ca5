// Package analysis is a reusable static-analysis layer over the cfg
// IR: graph utilities (predecessors, successors, reverse postorder),
// definite assignment, an IR verifier, and palint's AST checks.
//
// The paper's contribution lives entirely in per-function CFG
// transformations (DAG conversion, Ball-Larus numbering, probe
// placement); this package is what proves those transformations
// preserve the invariants they depend on. The IR verifier runs under
// palint -verify and the tests.
package analysis

import (
	"slices"

	"repro/internal/cfg"
)

// BitSet is a fixed-width bit vector. The width is chosen at
// allocation; all binary operations require equal widths.
type BitSet []uint64

// NewBitSet returns an empty set able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Has reports whether bit i is set.
func (s BitSet) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (s BitSet) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// SetFirstN sets bits [0, n).
func (s BitSet) SetFirstN(n int) {
	for i := 0; i < n; i++ {
		s.Set(i)
	}
}

// CopyFrom overwrites s with t.
func (s BitSet) CopyFrom(t BitSet) { copy(s, t) }

// UnionWith adds t's bits to s, reporting whether s changed.
func (s BitSet) UnionWith(t BitSet) bool {
	changed := false
	for i, w := range t {
		if nw := s[i] | w; nw != s[i] {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith removes bits absent from t, reporting whether s
// changed.
func (s BitSet) IntersectWith(t BitSet) bool {
	changed := false
	for i, w := range t {
		if nw := s[i] & w; nw != s[i] {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

// Equal reports whether s and t hold the same bits.
func (s BitSet) Equal(t BitSet) bool {
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Preds returns, per block, the list of predecessor block indices in
// edge-enumeration order. Duplicate predecessors cannot occur: the cfg
// builder rejects conditional branches with identical targets.
func Preds(f *cfg.Func) [][]int {
	preds := make([][]int, len(f.Blocks))
	for _, e := range f.Edges {
		preds[e.To] = append(preds[e.To], e.From)
	}
	return preds
}

// Succs returns, per block, the list of successor block indices in
// edge order (Then before Else).
func Succs(f *cfg.Func) [][]int {
	succs := make([][]int, len(f.Blocks))
	for b := range f.Blocks {
		for _, e := range f.Successors(b) {
			succs[b] = append(succs[b], f.Edges[e].To)
		}
	}
	return succs
}

// ReversePostorder returns the blocks reachable from the entry in
// reverse postorder of a DFS that visits successors in edge order.
// Forward dataflow problems converge fastest in this order; Postorder
// is its reverse for backward problems.
func ReversePostorder(f *cfg.Func) []int {
	n := len(f.Blocks)
	if n == 0 {
		return nil
	}
	succs := Succs(f)
	seen := make([]bool, n)
	post := make([]int, 0, n)
	// Iterative DFS; each frame tracks the next successor to visit.
	type frame struct {
		node int
		next int
	}
	stack := []frame{{node: 0}}
	seen[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		ss := succs[top.node]
		if top.next >= len(ss) {
			post = append(post, top.node)
			stack = stack[:len(stack)-1]
			continue
		}
		to := ss[top.next]
		top.next++
		if !seen[to] {
			seen[to] = true
			stack = append(stack, frame{node: to})
		}
	}
	slices.Reverse(post)
	return post
}
