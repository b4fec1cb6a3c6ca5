package bytecode

import "repro/internal/cfg"

// Static hit-count bound analysis for the CGT patch planner.
//
// The baseline elision rule waits for every hit-count bucket of a map
// cell to be observed before patching its probes out. That is far too
// conservative for the many probes that cannot reach the high buckets
// at all: an edge outside every loop of a function that is called once
// per execution fires at most once, so only the count==1 bucket is
// reachable and the other seven virgin bits can never clear. This file
// computes, per static probe cell, an upper bound on the hit count any
// single execution can produce, from which the planner derives the set
// of reachable buckets and consumes a cell as soon as all reachable
// buckets — rather than all eight — have been seen.
//
// The bound for one probe occurrence is the product of two factors:
//
//   - invocations: how many times its function can be entered per
//     execution, computed as a saturating fixpoint over the call
//     graph (the entry function contributes 1; a call site whose
//     block lies on a CFG cycle, or any recursion, saturates);
//   - traversals per invocation: 1, unless the probed edge lies on an
//     intra-function cycle (its target can reach its source), in
//     which case it saturates.
//
// Cells written by several probes (map-size masking may collide
// arbitrary cells) take the sum of their writers' bounds, since the
// hit counts add within one execution. Saturation caps everything at
// boundCap, whose bucket mask is already all eight bits, so imprecise
// code only ever falls back to the baseline rule — never below it.
//
// Both factors are computed on the source CFG, not the optimized one
// the bytecode implements: the optimization passes share the edge set
// ("the passes never change the CFG shape") and only ever remove
// executions (branch folding, dead-block elimination), so source-CFG
// bounds remain valid upper bounds for the lowered code.

// boundCap saturates the bound arithmetic. Any value >= 128 already
// makes every bucket reachable, so the cap only needs headroom for
// intermediate sums.
const boundCap = 1 << 20

func satAdd(a, b int) int {
	if s := a + b; s < boundCap {
		return s
	}
	return boundCap
}

func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= boundCap || b >= boundCap || a > boundCap/b {
		return boundCap
	}
	return a * b
}

// reachableBuckets maps a per-execution hit-count bound to the set of
// AFL bucket bits a probe with that bound can ever produce. The
// thresholds are the lower ends of coverage.bucket's classes.
func reachableBuckets(n int) uint8 {
	var m uint8
	for i, t := range [8]int{1, 2, 3, 4, 8, 16, 32, 128} {
		if n >= t {
			m |= 1 << i
		}
	}
	return m
}

// funcReach computes per-block forward reachability over f's edge set:
// reach[b][c] reports a path of at least one edge from b to c (so
// reach[b][b] means b lies on a cycle).
func funcReach(f *cfg.Func) [][]bool {
	succ := make([][]int, len(f.Blocks))
	for _, e := range f.Edges {
		succ[e.From] = append(succ[e.From], e.To)
	}
	reach := make([][]bool, len(f.Blocks))
	for b := range f.Blocks {
		seen := make([]bool, len(f.Blocks))
		stack := append([]int(nil), succ[b]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, succ[x]...)
		}
		reach[b] = seen
	}
	return reach
}

// fnInvocationBounds returns, per function, an upper bound on how many
// times it can be invoked in one execution entered at entry, or nil if
// entry does not exist. Unreachable functions get bound 0 — their
// probes can never fire, so their cells are consumable immediately.
func fnInvocationBounds(g *cfg.Program, entry string) []int {
	ei, ok := g.ByName[entry]
	if !ok {
		return nil
	}
	type call struct{ caller, callee, mult int }
	var calls []call
	for fi, f := range g.Funcs {
		reach := funcReach(f)
		for bi := range f.Blocks {
			for _, in := range f.Blocks[bi].Instrs {
				if in.Op != cfg.OpCall {
					continue
				}
				mult := 1
				if reach[bi][bi] {
					mult = boundCap
				}
				calls = append(calls, call{fi, in.Callee, mult})
			}
		}
	}
	// Kleene iteration: bounds grow monotonically and saturate, so the
	// recomputation reaches a fixpoint (recursion cycles pump their
	// members up to the cap and stop there).
	b := make([]int, len(g.Funcs))
	for changed := true; changed; {
		changed = false
		nb := make([]int, len(b))
		nb[ei] = 1
		for _, c := range calls {
			nb[c.callee] = satAdd(nb[c.callee], satMul(b[c.caller], c.mult))
		}
		for i := range nb {
			if nb[i] > b[i] {
				b[i] = nb[i]
				changed = true
			}
		}
	}
	return b
}

// CellHitBounds returns, per raw (pre-mask) map cell, an upper bound
// on the hit count one execution entered at entry can accumulate
// there. It is defined only for edge feedback, whose probes all carry
// compile-time map indices, and returns nil otherwise (or when entry
// is unknown), which disables the refinement. The cell enumeration
// mirrors the compiler's probe lowering: edge feedback writes
// Base+edge per CFG edge.
func (p *Program) CellHitBounds(entry string) map[uint32]int {
	if p.src == nil || p.spec.Kind != ProbeEdge {
		return nil
	}
	fb := fnInvocationBounds(p.src, entry)
	if fb == nil {
		return nil
	}
	out := make(map[uint32]int)
	for fi, f := range p.src.Funcs {
		var fs FnSpec
		if fi < len(p.spec.Fns) {
			fs = p.spec.Fns[fi]
		}
		reach := funcReach(f)
		for e, ed := range f.Edges {
			n := fb[fi]
			if reach[ed.To][ed.From] {
				n = satMul(n, boundCap)
			}
			cell := fs.Base + uint32(e)
			out[cell] = satAdd(out[cell], n)
		}
	}
	return out
}
