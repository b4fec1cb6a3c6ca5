// Package interproc is the interprocedural layer over the analysis
// package: the static call graph of a lowered program (callees,
// strongly connected components in bottom-up order, reachability from
// the entry) and palint's unreachable-func check, which reads
// reachability from it.
package interproc

import (
	"slices"

	"repro/internal/cfg"
)

// CallGraph is the static call graph of a lowered program: one node
// per function, an edge per distinct (caller, callee) pair. MiniC has
// no indirect calls, so the graph is exact.
type CallGraph struct {
	// Callees[f] lists the distinct functions f calls, ascending.
	Callees [][]int
	// SCCs lists the strongly connected components in bottom-up
	// (callee-first) order: every call from SCCs[i] lands in SCCs[j]
	// with j <= i. Each component's members are ascending.
	SCCs [][]int
	// SCCOf[f] is the index into SCCs of f's component.
	SCCOf []int
}

// NewCallGraph builds the call graph of p.
func NewCallGraph(p *cfg.Program) *CallGraph {
	n := len(p.Funcs)
	g := &CallGraph{
		Callees: make([][]int, n),
		SCCOf:   make([]int, n),
	}
	seen := make([]map[int]bool, n)
	for fi, f := range p.Funcs {
		seen[fi] = map[int]bool{}
		for b := range f.Blocks {
			for i := range f.Blocks[b].Instrs {
				in := &f.Blocks[b].Instrs[i]
				if in.Op != cfg.OpCall || in.Callee < 0 || in.Callee >= n {
					continue
				}
				if !seen[fi][in.Callee] {
					seen[fi][in.Callee] = true
					g.Callees[fi] = append(g.Callees[fi], in.Callee)
				}
			}
		}
	}
	// Callees were appended in instruction order; normalize to
	// ascending for deterministic iteration.
	for fi := range g.Callees {
		slices.Sort(g.Callees[fi])
	}
	g.tarjan(n)
	return g
}

// tarjan computes SCCs with Tarjan's algorithm (iterative). Tarjan
// emits components in reverse topological order of the condensation —
// exactly SCCs' bottom-up (callee-first) order — so SCCs needs no
// post-sort.
func (g *CallGraph) tarjan(n int) {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	next := 0

	type frame struct {
		v, ci int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		work := []frame{{v: root}}
		for len(work) > 0 {
			fr := &work[len(work)-1]
			v := fr.v
			if fr.ci == 0 {
				index[v], low[v] = next, next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for fr.ci < len(g.Callees[v]) {
				w := g.Callees[v][fr.ci]
				fr.ci++
				if index[w] == unvisited {
					work = append(work, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					g.SCCOf[w] = len(g.SCCs)
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				slices.Sort(comp)
				g.SCCs = append(g.SCCs, comp)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
}

// ReachableFrom marks the functions reachable from entry (inclusive)
// along call edges.
func (g *CallGraph) ReachableFrom(entry int) []bool {
	reach := make([]bool, len(g.Callees))
	if entry < 0 || entry >= len(reach) {
		return reach
	}
	stack := []int{entry}
	reach[entry] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Callees[v] {
			if !reach[w] {
				reach[w] = true
				stack = append(stack, w)
			}
		}
	}
	return reach
}
