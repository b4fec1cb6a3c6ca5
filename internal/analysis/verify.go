package analysis

import (
	"fmt"

	"repro/internal/balllarus"
	"repro/internal/cfg"
)

// maxEnumPaths bounds the exhaustive Ball-Larus path enumeration; a
// function with more acyclic paths is checked algebraically plus by
// sampled path walks instead.
const maxEnumPaths = 2048

// Verify checks every structural invariant of a lowered program that
// the instrumentation and bytecode layers depend on. It returns the
// first violation found, with a diagnostic naming the function, block,
// and invariant. palint -verify enforces a nil error on every subject.
func Verify(p *cfg.Program) error {
	for name, idx := range p.ByName {
		if idx < 0 || idx >= len(p.Funcs) {
			return fmt.Errorf("verify: ByName[%q] = %d out of range [0,%d)", name, idx, len(p.Funcs))
		}
		if p.Funcs[idx].Name != name {
			return fmt.Errorf("verify: ByName[%q] = #%d, but that function is named %q", name, idx, p.Funcs[idx].Name)
		}
	}
	for i, f := range p.Funcs {
		if f.ID != i {
			return fmt.Errorf("verify: func %q at index %d has ID %d", f.Name, i, f.ID)
		}
		if err := verifyCalls(p, f); err != nil {
			return err
		}
		if err := VerifyFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// verifyCalls checks cross-function invariants of f's call sites.
func verifyCalls(p *cfg.Program, f *cfg.Func) error {
	v := &verifier{f: f}
	for b := range f.Blocks {
		for i := range f.Blocks[b].Instrs {
			in := &f.Blocks[b].Instrs[i]
			if in.Op != cfg.OpCall {
				continue
			}
			if in.Callee < 0 || in.Callee >= len(p.Funcs) {
				return v.errf(b, "call at instr %d: callee #%d out of range [0,%d)", i, in.Callee, len(p.Funcs))
			}
		}
	}
	return nil
}

// VerifyFunc checks the single-function invariants: well-formed
// terminators and operands, the canonical edge enumeration, back-edge
// classification, loop depths, entry reachability, acyclicity of the
// DAG conversion, definite assignment of every slot use, and the
// Ball-Larus numbering (each acyclic path gets a unique ID in
// [0, NumPaths), and the optimized chord placement agrees with the
// naive one on every path).
func VerifyFunc(f *cfg.Func) error {
	v := &verifier{f: f}
	for _, step := range []func() error{
		v.shape,
		v.edges,
		v.backEdges,
		v.loopDepths,
		v.reachable,
		v.definiteAssignment,
		v.ballLarus,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

type verifier struct {
	f *cfg.Func
}

func (v *verifier) errf(block int, format string, args ...any) error {
	return fmt.Errorf("verify func %q (#%d): block b%d: %s",
		v.f.Name, v.f.ID, block, fmt.Sprintf(format, args...))
}

// shape checks terminators and instruction operands block by block.
func (v *verifier) shape() error {
	f := v.f
	if len(f.Blocks) == 0 {
		return fmt.Errorf("verify func %q (#%d): function has no blocks", f.Name, f.ID)
	}
	if f.NParams < 0 || f.NParams > f.NumSlots || f.NumSlots > f.FrameSize {
		return fmt.Errorf("verify func %q (#%d): inconsistent frame: params=%d slots=%d frame=%d",
			f.Name, f.ID, f.NParams, f.NumSlots, f.FrameSize)
	}
	slotOK := func(s int) bool { return s >= 0 && s < f.FrameSize }
	var buf []int
	for b := range f.Blocks {
		blk := &f.Blocks[b]
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			buf = InstrUses(in, buf[:0])
			if d := InstrDef(in); d >= 0 {
				buf = append(buf, d)
			}
			for _, s := range buf {
				if !slotOK(s) {
					return v.errf(b, "instr %d (%s): slot s%d out of frame [0,%d)", i, in.String(), s, f.FrameSize)
				}
			}
		}
		t := &blk.Term
		switch t.Kind {
		case cfg.TermJmp:
			if t.Then < 0 || t.Then >= len(f.Blocks) {
				return v.errf(b, "jmp target b%d out of range [0,%d)", t.Then, len(f.Blocks))
			}
		case cfg.TermBr:
			if t.Then < 0 || t.Then >= len(f.Blocks) {
				return v.errf(b, "br then-target b%d out of range [0,%d)", t.Then, len(f.Blocks))
			}
			if t.Else < 0 || t.Else >= len(f.Blocks) {
				return v.errf(b, "br else-target b%d out of range [0,%d)", t.Else, len(f.Blocks))
			}
			if t.Then == t.Else {
				return v.errf(b, "conditional branch with identical targets b%d", t.Then)
			}
			if !slotOK(t.Cond) {
				return v.errf(b, "br condition slot s%d out of frame [0,%d)", t.Cond, f.FrameSize)
			}
		case cfg.TermRet:
			if t.Val >= f.FrameSize {
				return v.errf(b, "ret slot s%d out of frame [0,%d)", t.Val, f.FrameSize)
			}
		default:
			return v.errf(b, "block ends in unknown terminator kind %d (must end in exactly one of jmp/br/ret)", t.Kind)
		}
	}
	return nil
}

// edges checks that Func.Edges is exactly the canonical enumeration
// (block order, Then before Else) and that the per-block edge indices
// agree with it.
func (v *verifier) edges() error {
	f := v.f
	idx := 0
	expect := func(b int, e cfg.Edge, which string, got int) error {
		if idx >= len(f.Edges) {
			return v.errf(b, "edge list too short: missing %s edge (have %d edges)", which, len(f.Edges))
		}
		if f.Edges[idx] != e {
			return v.errf(b, "edge e%d is %v, want canonical %v", idx, f.Edges[idx], e)
		}
		if got != idx {
			return v.errf(b, "Edge%s index is %d, want e%d", which, got, idx)
		}
		idx++
		return nil
	}
	for b := range f.Blocks {
		blk := &f.Blocks[b]
		switch blk.Term.Kind {
		case cfg.TermJmp:
			if err := expect(b, cfg.Edge{From: b, To: blk.Term.Then}, "Then", blk.EdgeThen); err != nil {
				return err
			}
			if blk.EdgeElse != -1 {
				return v.errf(b, "jmp block has EdgeElse %d, want -1", blk.EdgeElse)
			}
		case cfg.TermBr:
			if err := expect(b, cfg.Edge{From: b, To: blk.Term.Then}, "Then", blk.EdgeThen); err != nil {
				return err
			}
			if err := expect(b, cfg.Edge{From: b, To: blk.Term.Else}, "Else", blk.EdgeElse); err != nil {
				return err
			}
		case cfg.TermRet:
			if blk.EdgeThen != -1 || blk.EdgeElse != -1 {
				return v.errf(b, "ret block has edge indices (%d,%d), want (-1,-1)", blk.EdgeThen, blk.EdgeElse)
			}
		}
	}
	if idx != len(f.Edges) {
		return v.errf(len(f.Blocks)-1, "edge list has %d entries, canonical enumeration has %d", len(f.Edges), idx)
	}
	return nil
}

// backEdges re-runs the grey-stack DFS classification and compares it
// with Func.BackEdge, then checks the DAG conversion is acyclic.
func (v *verifier) backEdges() error {
	f := v.f
	if len(f.BackEdge) != len(f.Edges) {
		return v.errf(0, "BackEdge has %d entries for %d edges", len(f.BackEdge), len(f.Edges))
	}
	want := recomputeBackEdges(f)
	for e := range want {
		if want[e] != f.BackEdge[e] {
			return v.errf(f.Edges[e].From, "edge e%d (b%d->b%d) back-edge flag is %v, DFS classification says %v",
				e, f.Edges[e].From, f.Edges[e].To, f.BackEdge[e], want[e])
		}
	}
	if _, err := f.TopoOrder(); err != nil {
		return v.errf(0, "DAG conversion is cyclic: %v", err)
	}
	return nil
}

// recomputeBackEdges is the classification the cfg builder performs:
// an edge is a back edge iff its target is on the DFS stack when the
// edge is first traversed from the entry (successors in edge order).
func recomputeBackEdges(f *cfg.Func) []bool {
	back := make([]bool, len(f.Edges))
	if len(f.Blocks) == 0 {
		return back
	}
	const (
		white = iota
		grey
		black
	)
	color := make([]int, len(f.Blocks))
	type frame struct {
		block int
		next  int
	}
	stack := []frame{{block: 0}}
	color[0] = grey
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succ := f.Successors(top.block)
		if top.next >= len(succ) {
			color[top.block] = black
			stack = stack[:len(stack)-1]
			continue
		}
		e := succ[top.next]
		top.next++
		to := f.Edges[e].To
		switch color[to] {
		case grey:
			back[e] = true
		case white:
			color[to] = grey
			stack = append(stack, frame{block: to})
		}
	}
	return back
}

// loopDepths recomputes natural-loop nesting depths and compares.
func (v *verifier) loopDepths() error {
	f := v.f
	if len(f.LoopDepth) != len(f.Blocks) {
		return v.errf(0, "LoopDepth has %d entries for %d blocks", len(f.LoopDepth), len(f.Blocks))
	}
	depth := make([]int, len(f.Blocks))
	preds := Preds(f)
	for e, isBack := range f.BackEdge {
		if !isBack {
			continue
		}
		from, to := f.Edges[e].From, f.Edges[e].To
		in := make([]bool, len(f.Blocks))
		in[to] = true
		stack := []int{}
		if !in[from] {
			in[from] = true
			stack = append(stack, from)
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range preds[b] {
				if !in[p] {
					in[p] = true
					stack = append(stack, p)
				}
			}
		}
		for b, ok := range in {
			if ok {
				depth[b]++
			}
		}
	}
	for b := range depth {
		if depth[b] != f.LoopDepth[b] {
			return v.errf(b, "loop depth is %d, natural-loop recomputation says %d", f.LoopDepth[b], depth[b])
		}
	}
	return nil
}

// reachable checks that every block is reachable from the entry (the
// cfg builder prunes unreachable blocks; instrumentation plans assume
// the pruned form).
func (v *verifier) reachable() error {
	f := v.f
	rpo := ReversePostorder(f)
	if len(rpo) == len(f.Blocks) {
		return nil
	}
	seen := make([]bool, len(f.Blocks))
	for _, b := range rpo {
		seen[b] = true
	}
	for b, ok := range seen {
		if !ok {
			return v.errf(b, "block unreachable from entry (cfg lowering prunes unreachable blocks)")
		}
	}
	return nil
}

// definiteAssignment checks every slot read is preceded by a write on
// every path from the entry (with parameters written at entry). This
// is the sound phrasing of "defs dominate uses" for this IR: a slot
// may have several defs on branching paths (e.g. the short-circuit
// lowering writes its result temp in both arms), none of which
// individually dominates the join-point use.
func (v *verifier) definiteAssignment() error {
	f := v.f
	in := definitelyAssigned(f)
	assigned := NewBitSet(f.FrameSize)
	var buf []int
	for b := range f.Blocks {
		assigned.CopyFrom(in[b])
		blk := &f.Blocks[b]
		check := func(what string, i int) error {
			for _, s := range buf {
				if s >= 0 && s < f.FrameSize && !assigned.Has(s) {
					return v.errf(b, "%s reads slot s%d, which is not definitely assigned on every path from entry (instr %d)", what, s, i)
				}
			}
			return nil
		}
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			buf = InstrUses(in, buf[:0])
			if err := check(in.String(), i); err != nil {
				return err
			}
			if d := InstrDef(in); d >= 0 {
				assigned.Set(d)
			}
		}
		buf = TermUses(&blk.Term, buf[:0])
		if err := check("terminator", len(blk.Instrs)); err != nil {
			return err
		}
	}
	return nil
}

// ballLarus checks the path-numbering invariants: the DAG conversion
// provides exactly one BackStart/BackEnd pseudo-edge pair per back
// edge and one Real edge per forward edge; both instrumentation plans
// cover every edge; and the increments assign each acyclic path a
// unique ID in [0, NumPaths) — verified by exhaustive enumeration on
// small functions and by algebraic recomputation plus sampled path
// walks on large ones. Functions whose path count overflows MaxPaths
// use the hash fallback and carry no plan to verify.
func (v *verifier) ballLarus() error {
	f := v.f
	enc, err := balllarus.Encode(f)
	if err != nil {
		return nil // hash-mode fallback: no numbering to verify
	}
	// DAG conversion accounting.
	var nReal, nRet int
	starts := make(map[int]int)
	ends := make(map[int]int)
	for _, de := range enc.Dag {
		switch de.Kind {
		case balllarus.Real:
			if f.BackEdge[de.Ref] {
				return v.errf(f.Edges[de.Ref].From, "back edge e%d appears as a Real DAG edge", de.Ref)
			}
			nReal++
		case balllarus.BackStart:
			starts[de.Ref]++
		case balllarus.BackEnd:
			ends[de.Ref]++
		case balllarus.RetEdge:
			nRet++
		}
	}
	for e, isBack := range f.BackEdge {
		if isBack && (starts[e] != 1 || ends[e] != 1) {
			return v.errf(f.Edges[e].From, "back edge e%d has %d BackStart / %d BackEnd pseudo edges, want exactly 1 of each",
				e, starts[e], ends[e])
		}
	}
	if wantReal := len(f.Edges) - f.NumBackEdges(); nReal != wantReal {
		return v.errf(0, "DAG has %d Real edges for %d forward CFG edges", nReal, wantReal)
	}
	if wantRet := len(f.RetBlocks()); nRet != wantRet {
		return v.errf(0, "DAG has %d RetEdges for %d return blocks", nRet, wantRet)
	}

	naive := enc.NaivePlan()
	opt := enc.OptimizedPlan()
	for _, plan := range []*balllarus.Plan{&naive, &opt} {
		if len(plan.EdgeInc) != len(f.Edges) {
			return v.errf(0, "plan EdgeInc has %d entries for %d edges", len(plan.EdgeInc), len(f.Edges))
		}
		if len(plan.RetInc) != len(f.Blocks) {
			return v.errf(0, "plan RetInc has %d entries for %d blocks", len(plan.RetInc), len(f.Blocks))
		}
		for e, isBack := range f.BackEdge {
			_, hasAct := plan.Back[e]
			if isBack && !hasAct {
				return v.errf(f.Edges[e].From, "back edge e%d has no record/reset action in the plan", e)
			}
			if !isBack && hasAct {
				return v.errf(f.Edges[e].From, "forward edge e%d carries a back-edge action", e)
			}
		}
	}

	if err := v.checkPathCounts(enc); err != nil {
		return err
	}
	if enc.NumPaths <= maxEnumPaths {
		return v.enumeratePaths(enc, &naive, &opt)
	}
	return v.samplePaths(enc, &naive, &opt)
}

// dagOut rebuilds the per-node ordered out-edge lists (Dag order is
// the deterministic order Val assignment used).
func dagOut(enc *balllarus.Encoding, exit int) [][]int {
	out := make([][]int, exit+1)
	for i := range enc.Dag {
		out[enc.Dag[i].From] = append(out[enc.Dag[i].From], i)
	}
	return out
}

// checkPathCounts independently recomputes the per-node path counts
// and checks the Ball-Larus Val property: each node's outgoing Vals
// are the prefix sums of its successors' path counts. Together with
// acyclicity this is the algebraic proof that valSum is a bijection
// from ENTRY→EXIT paths onto [0, NumPaths).
func (v *verifier) checkPathCounts(enc *balllarus.Encoding) error {
	f := v.f
	exit := len(f.Blocks)
	out := dagOut(enc, exit)
	order, err := f.TopoOrder()
	if err != nil {
		return v.errf(0, "DAG conversion is cyclic: %v", err)
	}
	paths := make([]uint64, exit+1)
	paths[exit] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		var sum uint64
		for _, ei := range out[n] {
			sum += paths[enc.Dag[ei].To]
		}
		paths[n] = sum
	}
	if paths[0] != enc.NumPaths {
		return v.errf(0, "NumPaths is %d, independent recomputation says %d", enc.NumPaths, paths[0])
	}
	for n := 0; n <= exit; n++ {
		var prefix uint64
		for _, ei := range out[n] {
			de := &enc.Dag[ei]
			if uint64(de.Val) != prefix {
				from := n
				if from == exit {
					from = 0
				}
				return v.errf(from, "DAG edge to %d has Val %d, want prefix sum %d (Ball-Larus numbering violated)",
					de.To, de.Val, prefix)
			}
			prefix += paths[de.To]
		}
	}
	return nil
}

// simulate runs the runtime instrumentation plan over one DAG path
// (edge-index sequence), returning the recorded path ID.
func simulate(enc *balllarus.Encoding, plan *balllarus.Plan, path []int) (int64, error) {
	var r int64
	for step, ei := range path {
		de := &enc.Dag[ei]
		switch de.Kind {
		case balllarus.BackStart:
			if step != 0 {
				return 0, fmt.Errorf("BackStart pseudo edge at path step %d (must be first)", step)
			}
			r = plan.Back[de.Ref].StartVal
		case balllarus.Real:
			r += plan.EdgeInc[de.Ref]
		case balllarus.BackEnd:
			return r + plan.Back[de.Ref].EndInc, nil
		case balllarus.RetEdge:
			return r + plan.RetInc[de.Ref], nil
		}
	}
	return 0, fmt.Errorf("path did not end in a BackEnd or RetEdge")
}

// checkPath verifies one DAG path: both plans must record the path's
// Val sum, which must lie in [0, NumPaths).
func (v *verifier) checkPath(enc *balllarus.Encoding, naive, opt *balllarus.Plan, path []int) (int64, error) {
	var valSum int64
	for _, ei := range path {
		valSum += enc.Dag[ei].Val
	}
	if valSum < 0 || uint64(valSum) >= enc.NumPaths {
		return 0, v.errf(0, "acyclic path has ID %d outside [0,%d)", valSum, enc.NumPaths)
	}
	for name, plan := range map[string]*balllarus.Plan{"naive": naive, "optimized": opt} {
		got, err := simulate(enc, plan, path)
		if err != nil {
			return 0, v.errf(0, "%s plan: %v", name, err)
		}
		if got != valSum {
			return 0, v.errf(0, "%s plan records path ID %d, numbering assigns %d", name, got, valSum)
		}
	}
	return valSum, nil
}

// enumeratePaths exhaustively walks every ENTRY→EXIT DAG path and
// checks the recorded IDs form exactly the set [0, NumPaths).
func (v *verifier) enumeratePaths(enc *balllarus.Encoding, naive, opt *balllarus.Plan) error {
	exit := len(v.f.Blocks)
	out := dagOut(enc, exit)
	seen := make([]bool, enc.NumPaths)
	count := uint64(0)
	var path []int
	var walk func(node int) error
	walk = func(node int) error {
		if node == exit {
			id, err := v.checkPath(enc, naive, opt, path)
			if err != nil {
				return err
			}
			if seen[id] {
				return v.errf(0, "two acyclic paths share ID %d (numbering is not injective)", id)
			}
			seen[id] = true
			count++
			if count > enc.NumPaths {
				return v.errf(0, "more than NumPaths=%d ENTRY→EXIT paths exist", enc.NumPaths)
			}
			return nil
		}
		for _, ei := range out[node] {
			path = append(path, ei)
			if err := walk(enc.Dag[ei].To); err != nil {
				return err
			}
			path = path[:len(path)-1]
		}
		return nil
	}
	if err := walk(0); err != nil {
		return err
	}
	if count != enc.NumPaths {
		return v.errf(0, "enumeration found %d acyclic paths, NumPaths says %d", count, enc.NumPaths)
	}
	return nil
}

// samplePaths spot-checks large functions: 64 deterministic pseudo-
// random ENTRY→EXIT walks, each verified against both plans. Combined
// with checkPathCounts (the algebraic bijection proof) this covers
// functions whose path count makes enumeration infeasible.
func (v *verifier) samplePaths(enc *balllarus.Encoding, naive, opt *balllarus.Plan) error {
	exit := len(v.f.Blocks)
	out := dagOut(enc, exit)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		x := rng
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	for walk := 0; walk < 64; walk++ {
		var path []int
		node := 0
		for node != exit {
			choices := out[node]
			if len(choices) == 0 {
				return v.errf(node, "DAG node has no outgoing edges but is not EXIT")
			}
			ei := choices[int(next()%uint64(len(choices)))]
			path = append(path, ei)
			node = enc.Dag[ei].To
			if len(path) > len(enc.Dag)+1 {
				return v.errf(0, "sampled walk exceeds DAG size (cycle?)")
			}
		}
		if _, err := v.checkPath(enc, naive, opt, path); err != nil {
			return err
		}
	}
	return nil
}
