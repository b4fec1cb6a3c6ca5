// Package balllarus implements the Ball-Larus efficient path profiling
// algorithm (Ball & Larus, MICRO 1996) over MiniC CFGs, adapted for use
// as a fuzzing coverage feedback as described in the reproduced paper.
//
// The algorithm numbers the acyclic paths of a function 0..n-1 by
// assigning an increment value to each edge of a DAG derived from the
// CFG; the sum of increments along any ENTRY->EXIT DAG path is a unique
// path identifier. Loops are handled by the classic provision: each back
// edge v->w contributes two pseudo edges, ENTRY->w (a path may begin at
// a loop header) and v->EXIT (a path may end at a back edge source). At
// run time the profiler keeps one word-sized register r per activation:
//
//	function entry:  r = 0
//	edge e:          r += inc(e)
//	back edge v->w:  record(r + endInc); r = startVal
//	return in b:     record(r + retInc(b))
//
// Two instrumentation plans are provided. The naive plan places Val(e)
// on every DAG edge. The optimized plan reproduces the paper's probe
// minimisation: a maximum-weight spanning tree (weights from loop-depth
// frequency estimates) is chosen on the underlying undirected graph
// augmented with an EXIT->ENTRY link edge, and only chord edges receive
// increments, computed as signed sums of Val around each chord's
// fundamental cycle. Both plans yield identical path identifiers — a
// property the test suite checks exhaustively and randomly.
package balllarus

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cfg"
)

// ErrPathOutOfRange is returned (wrapped) by Regenerate when the
// requested path identifier is not in [0, NumPaths). Consumers
// inverting a coverage map use it to distinguish a stale or colliding
// map cell — an ID that simply does not belong to this function — from
// a corrupt encoding, which reports a different error.
var ErrPathOutOfRange = errors.New("path id out of range")

// MaxPaths bounds the number of acyclic paths per function the encoder
// accepts. Functions exceeding it (pathological branch ladders) cannot
// be numbered in a word-sized register without risking overflow; callers
// are expected to fall back to a hashed path feedback for them.
const MaxPaths = uint64(1) << 48

// EdgeKind classifies DAG edges.
type EdgeKind int

// DAG edge kinds.
const (
	// Real is a CFG edge that is not a back edge; Ref is its index in
	// Func.Edges.
	Real EdgeKind = iota
	// BackStart is the pseudo edge ENTRY->w for back edge Ref.
	BackStart
	// BackEnd is the pseudo edge v->EXIT for back edge Ref.
	BackEnd
	// RetEdge is the structural edge b->EXIT for return block Ref.
	RetEdge
)

// DAGEdge is an edge of the acyclic path-numbering graph.
type DAGEdge struct {
	From, To int
	Kind     EdgeKind
	Ref      int
	// Val is the Ball-Larus edge value (prefix sums of successor path
	// counts).
	Val int64
	// Weight is the spanning-tree frequency estimate.
	Weight int64
	// InTree marks maximum-spanning-tree membership; chords carry Inc.
	InTree bool
	// Inc is the chord increment of the optimized placement (0 for
	// tree edges).
	Inc int64
}

// BackAction is the runtime action attached to a back edge: record the
// completed path as r+EndInc, then start a new path with r=StartVal.
type BackAction struct {
	EndInc   int64
	StartVal int64
}

// Plan is a runtime instrumentation plan for one function.
type Plan struct {
	// EdgeInc maps each CFG edge index to the increment applied when
	// it is traversed. Back edges hold 0 here; their action is in Back.
	EdgeInc []int64
	// Back maps back-edge CFG indices to their record/reset action.
	Back map[int]BackAction
	// RetInc maps each block index to the increment added to r before
	// recording when the block returns.
	RetInc []int64
	// Probes counts the non-zero increments the plan needs (a proxy
	// for instrumentation cost, reported by paprof -stats and the
	// quickstart).
	Probes int
}

// Encoding is the full Ball-Larus numbering of one function.
type Encoding struct {
	Fn *cfg.Func
	// NumPaths is the number of acyclic paths (valid IDs are
	// 0..NumPaths-1).
	NumPaths uint64
	// Dag lists the numbering graph's edges (excluding the EXIT->ENTRY
	// link, which exists only for spanning-tree construction).
	Dag []DAGEdge
	// nodePaths[v] is the number of DAG paths from v to EXIT.
	nodePaths []uint64
	exit      int
	// out[v] lists indices into Dag of v's outgoing DAG edges, in the
	// deterministic order used for Val assignment.
	out [][]int
}

// Encode numbers the acyclic paths of f.
func Encode(f *cfg.Func) (*Encoding, error) {
	order, err := f.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &Encoding{Fn: f, exit: len(f.Blocks)}

	// Assemble the DAG edge set.
	for i, edge := range f.Edges {
		if f.BackEdge[i] {
			e.Dag = append(e.Dag,
				DAGEdge{From: 0, To: edge.To, Kind: BackStart, Ref: i},
				DAGEdge{From: edge.From, To: e.exit, Kind: BackEnd, Ref: i})
		} else {
			e.Dag = append(e.Dag, DAGEdge{From: edge.From, To: edge.To, Kind: Real, Ref: i})
		}
	}
	for _, b := range f.RetBlocks() {
		e.Dag = append(e.Dag, DAGEdge{From: b, To: e.exit, Kind: RetEdge, Ref: b})
	}

	e.out = make([][]int, e.exit+1)
	for i := range e.Dag {
		e.out[e.Dag[i].From] = append(e.out[e.Dag[i].From], i)
	}

	// NumPaths in reverse topological order (EXIT last).
	e.nodePaths = make([]uint64, e.exit+1)
	e.nodePaths[e.exit] = 1
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var sum uint64
		for _, de := range e.out[v] {
			to := e.Dag[de].To
			np := e.nodePaths[to]
			if np == 0 {
				return nil, fmt.Errorf("function %s: node b%d path count not yet computed (bad topo order)", f.Name, to)
			}
			sum += np
			if sum > MaxPaths {
				return nil, fmt.Errorf("function %s: more than %d acyclic paths", f.Name, MaxPaths)
			}
		}
		e.nodePaths[v] = sum
	}
	e.NumPaths = e.nodePaths[0]

	// Val assignment: prefix sums over each node's ordered successors.
	for _, v := range order {
		var prefix uint64
		for _, de := range e.out[v] {
			e.Dag[de].Val = int64(prefix)
			prefix += e.nodePaths[e.Dag[de].To]
		}
	}

	e.assignWeights()
	e.buildSpanningTree()
	e.computeChordIncrements()
	return e, nil
}

// assignWeights estimates edge execution frequencies from loop depth:
// an edge whose source sits inside d nested loops is assumed to run
// ~10^d times more often than a depth-0 edge. Back-edge pseudo edges
// inherit the back edge's (high) frequency, so they gravitate into the
// spanning tree and loops pay no extra probes.
func (e *Encoding) assignWeights() {
	depthOf := func(b int) int {
		if b == e.exit {
			return 0
		}
		d := e.Fn.LoopDepth[b]
		if d > 6 {
			d = 6
		}
		return d
	}
	for i := range e.Dag {
		de := &e.Dag[i]
		var d int
		switch de.Kind {
		case Real, RetEdge:
			d = depthOf(de.From)
		case BackStart, BackEnd:
			// Frequency of the underlying back edge.
			d = depthOf(e.Fn.Edges[de.Ref].From)
		}
		de.Weight = int64(math.Pow10(d))
	}
}

// buildSpanningTree runs Kruskal's algorithm for a maximum-weight
// spanning tree over the undirected view of the DAG plus the EXIT->ENTRY
// link edge (which is forced into the tree so that every ENTRY->EXIT
// path closes into a cycle through tree edges only).
func (e *Encoding) buildSpanningTree() {
	parent := make([]int, e.exit+1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) bool {
		ra, rb := find(a), find(b)
		if ra == rb {
			return false
		}
		parent[ra] = rb
		return true
	}

	// Force the link edge first.
	union(e.exit, 0)

	idx := make([]int, len(e.Dag))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return e.Dag[idx[a]].Weight > e.Dag[idx[b]].Weight
	})
	for _, i := range idx {
		de := &e.Dag[i]
		if union(de.From, de.To) {
			de.InTree = true
		}
	}
}

// computeChordIncrements assigns each chord c the signed sum of Val
// around its fundamental cycle in the spanning tree, so that summing
// chord increments along any ENTRY->EXIT path reproduces the path's
// Val sum exactly (the correctness property the tests verify).
func (e *Encoding) computeChordIncrements() {
	// Tree adjacency: node -> list of (neighbor, dagIndex, forward?).
	type adj struct {
		to      int
		idx     int
		forward bool
	}
	tree := make([][]adj, e.exit+1)
	addTree := func(idx int) {
		de := &e.Dag[idx]
		tree[de.From] = append(tree[de.From], adj{to: de.To, idx: idx, forward: true})
		tree[de.To] = append(tree[de.To], adj{to: de.From, idx: idx, forward: false})
	}
	for i := range e.Dag {
		if e.Dag[i].InTree {
			addTree(i)
		}
	}
	// The link edge EXIT->ENTRY is in the tree with Val 0; represent it
	// with idx -1 so its (zero) value never contributes.
	tree[e.exit] = append(tree[e.exit], adj{to: 0, idx: -1, forward: true})
	tree[0] = append(tree[0], adj{to: e.exit, idx: -1, forward: false})

	// signedPathSum walks the unique tree path src->dst and returns the
	// signed Val sum (+Val when a tree edge is traversed along its
	// direction, -Val against).
	signedPathSum := func(src, dst int) int64 {
		if src == dst {
			return 0
		}
		type state struct {
			node int
			sum  int64
		}
		prev := make([]bool, e.exit+1)
		prev[src] = true
		stack := []state{{node: src}}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range tree[s.node] {
				if prev[a.to] {
					continue
				}
				var v int64
				if a.idx >= 0 {
					v = e.Dag[a.idx].Val
				}
				if !a.forward {
					v = -v
				}
				ns := state{node: a.to, sum: s.sum + v}
				if a.to == dst {
					return ns.sum
				}
				prev[a.to] = true
				stack = append(stack, ns)
			}
		}
		// Unreachable: spanning trees connect all nodes.
		panic("balllarus: disconnected spanning tree")
	}

	for i := range e.Dag {
		de := &e.Dag[i]
		if de.InTree {
			de.Inc = 0
			continue
		}
		// Cycle: chord From->To (forward, +Val), then tree path back
		// To -> ... -> From.
		de.Inc = de.Val + signedPathSum(de.To, de.From)
	}
}

// NaivePlan returns the unoptimized placement: every DAG edge carries
// its Val.
func (e *Encoding) NaivePlan() Plan { return e.plan(func(d *DAGEdge) int64 { return d.Val }) }

// OptimizedPlan returns the spanning-tree-minimised placement: only
// chords carry increments.
func (e *Encoding) OptimizedPlan() Plan {
	return e.plan(func(d *DAGEdge) int64 {
		if d.InTree {
			return 0
		}
		return d.Inc
	})
}

func (e *Encoding) plan(incOf func(*DAGEdge) int64) Plan {
	p := Plan{
		EdgeInc: make([]int64, len(e.Fn.Edges)),
		Back:    make(map[int]BackAction),
		RetInc:  make([]int64, len(e.Fn.Blocks)),
	}
	for i := range e.Dag {
		de := &e.Dag[i]
		inc := incOf(de)
		switch de.Kind {
		case Real:
			p.EdgeInc[de.Ref] = inc
		case BackStart:
			a := p.Back[de.Ref]
			a.StartVal = inc
			p.Back[de.Ref] = a
		case BackEnd:
			a := p.Back[de.Ref]
			a.EndInc = inc
			p.Back[de.Ref] = a
		case RetEdge:
			p.RetInc[de.Ref] = inc
		}
	}
	for _, v := range p.EdgeInc {
		if v != 0 {
			p.Probes++
		}
	}
	for _, a := range p.Back {
		if a.EndInc != 0 {
			p.Probes++
		}
		if a.StartVal != 0 {
			p.Probes++
		}
	}
	for _, v := range p.RetInc {
		if v != 0 {
			p.Probes++
		}
	}
	return p
}

// PathStep describes one element of a regenerated path.
type PathStep struct {
	Block int
	// EnterViaBackEdge marks a path that begins at a loop header
	// (first step only).
	EnterViaBackEdge bool
	// ExitViaBackEdge marks a path that ends at a back edge source
	// (last step only).
	ExitViaBackEdge bool
}

// Regenerate reconstructs the block sequence of the acyclic path with
// the given identifier, inverting the numbering. IDs outside
// [0, NumPaths) return an error wrapping ErrPathOutOfRange.
//
// Caveat for hashed path modes: functions whose path count exceeds
// MaxPaths are never encoded — the tracer falls back to a rolling hash
// over edge indices, and the values it records are hash buckets, not
// Ball-Larus identifiers. Such values must not be passed here: they are
// either out of range (reported honestly via ErrPathOutOfRange) or,
// worse, collide with a legitimate ID of some other function and decode
// to an unrelated path. Callers inverting a shared coverage map must
// track which functions are in hash mode and treat their cells as
// buckets, not decodable paths.
func (e *Encoding) Regenerate(id uint64) ([]PathStep, error) {
	if id >= e.NumPaths {
		return nil, fmt.Errorf("path id %d not in [0,%d): %w", id, e.NumPaths, ErrPathOutOfRange)
	}
	rem := int64(id)
	node := 0
	var steps []PathStep
	first := true
	for node != e.exit {
		// Choose the outgoing edge with the largest Val <= rem.
		var chosen = -1
		for _, de := range e.out[node] {
			if e.Dag[de].Val <= rem && (chosen < 0 || e.Dag[de].Val > e.Dag[chosen].Val) {
				chosen = de
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("regenerate: stuck at node b%d with remainder %d", node, rem)
		}
		d := &e.Dag[chosen]
		rem -= d.Val
		switch d.Kind {
		case BackStart:
			// Path begins at the loop header, not at the entry block.
			steps = steps[:0]
			steps = append(steps, PathStep{Block: d.To, EnterViaBackEdge: true})
		case BackEnd:
			steps = append(steps, PathStep{Block: d.From, ExitViaBackEdge: true})
		case RetEdge:
			steps = append(steps, PathStep{Block: d.From})
		case Real:
			if first {
				steps = append(steps, PathStep{Block: d.From})
			}
			steps = append(steps, PathStep{Block: d.To})
		}
		first = false
		node = d.To
	}
	if rem != 0 {
		return nil, fmt.Errorf("regenerate: nonzero remainder %d at exit", rem)
	}
	return dedupeSteps(steps), nil
}

// dedupeSteps removes consecutive duplicate blocks that arise from the
// step-recording scheme above.
func dedupeSteps(steps []PathStep) []PathStep {
	var out []PathStep
	for _, s := range steps {
		if n := len(out); n > 0 && out[n-1].Block == s.Block {
			out[n-1].ExitViaBackEdge = out[n-1].ExitViaBackEdge || s.ExitViaBackEdge
			continue
		}
		out = append(out, s)
	}
	return out
}
