// Package analysis is a reusable static-analysis layer over the cfg
// IR: graph utilities (predecessors, reverse postorder, dominator and
// post-dominator trees), a generic bit-vector dataflow solver with the
// classic instances (liveness, reaching definitions, definite
// assignment), interval/constant propagation, and an IR verifier.
//
// The paper's contribution lives entirely in per-function CFG
// transformations (DAG conversion, Ball-Larus numbering, probe
// placement); this package is what proves those transformations
// preserve the invariants they depend on. The verifier runs after
// every instrumentation and bytecode-compile pass under
// -analysis=strict (on by default in tests), and the interval analysis
// backs the palint subject linter.
package analysis

import "repro/internal/cfg"

// BitSet is a fixed-width bit vector. The width is chosen at
// allocation; all binary operations require equal widths.
type BitSet []uint64

// NewBitSet returns an empty set able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Has reports whether bit i is set.
func (s BitSet) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (s BitSet) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Unset clears bit i.
func (s BitSet) Unset(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

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
	return reversePostorder(len(f.Blocks), 0, Succs(f))
}

func reversePostorder(n, entry int, succs [][]int) []int {
	if n == 0 {
		return nil
	}
	seen := make([]bool, n)
	post := make([]int, 0, n)
	// Iterative DFS; each frame tracks the next successor to visit.
	type frame struct {
		node int
		next int
	}
	stack := []frame{{node: entry}}
	seen[entry] = true
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
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominators computes the immediate-dominator tree with the
// Cooper-Harvey-Kennedy iterative algorithm. idom[entry] == entry;
// blocks unreachable from the entry get idom -1. (The cfg builder
// prunes unreachable blocks, so -1 only appears on hand-built or
// corrupted functions — which is exactly when the verifier needs the
// tree to stay well defined.)
func Dominators(f *cfg.Func) []int {
	return idomTree(len(f.Blocks), 0, Preds(f), ReversePostorder(f))
}

// PostDominators computes the immediate post-dominator tree over the
// reverse CFG with a virtual exit node (index len(f.Blocks)) that every
// return block flows into. Blocks that cannot reach any return (e.g.
// bodies of infinite loops) get ipdom -1; the virtual exit is its own
// post-dominator.
func PostDominators(f *cfg.Func) []int {
	n := len(f.Blocks)
	exit := n
	// Reverse graph: "successors" are CFG predecessors, plus exit->ret.
	rsuccs := make([][]int, n+1)
	for _, e := range f.Edges {
		rsuccs[e.To] = append(rsuccs[e.To], e.From)
	}
	rpreds := make([][]int, n+1)
	for b := range f.Blocks {
		if f.Blocks[b].Term.Kind == cfg.TermRet {
			rsuccs[exit] = append(rsuccs[exit], b)
		}
	}
	for from, ss := range rsuccs {
		for _, to := range ss {
			rpreds[to] = append(rpreds[to], from)
		}
	}
	return idomTree(n+1, exit, rpreds, reversePostorder(n+1, exit, rsuccs))
}

// idomTree is the generic Cooper-Harvey-Kennedy fixpoint: rpo must be a
// reverse postorder of the nodes reachable from entry.
func idomTree(n, entry int, preds [][]int, rpo []int) []int {
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[entry] = entry
	rpoIndex := make([]int, n)
	for i := range rpoIndex {
		rpoIndex[i] = -1
	}
	for i, b := range rpo {
		rpoIndex[b] = i
	}
	intersect := func(a, b int) int {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = idom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if idom[p] < 0 {
					continue // not yet processed or unreachable
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b under the given
// idom tree (reflexive: every block dominates itself).
func Dominates(idom []int, a, b int) bool {
	if idom[b] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == b || next < 0 {
			return a == b
		}
		b = next
	}
}
