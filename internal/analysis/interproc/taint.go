// Package interproc is the interprocedural layer over the analysis
// package: a call-graph-based summary framework (bottom-up SCC order,
// context-insensitive function summaries, whole-program fixpoint over
// recursive components) running one concrete analysis,
// input-dependency (taint) tracking which values derive from which
// input bytes.
//
// The facts it produces feed three consumers: three palint checks, the
// paprof -facts inspection dump, and the coverage report's frontier,
// which names the input bytes each half-explored branch depends on.
//
// Soundness contract: dependency is OVER-approximated (every byte that
// can influence a branch outcome at runtime is in the branch's static
// byte set). TestDependencyBytesSound pins it against concrete
// executions.
package interproc

import (
	"repro/internal/analysis"
	"repro/internal/cfg"
)

// TV is the input-dependency lattice value of one abstract value.
//
// Dep says the value may be influenced by the input in ANY way —
// content, length, or merely which control path produced it. Bytes
// narrows the content part: the input byte offsets the value may
// derive from (so Dep with empty Bytes means the influence flows only
// through the input's length or through control decisions, which
// length-preserving byte mutations cannot exploit). LenVal marks a
// direct data-flow dependency on len(input); unlike Dep it does NOT
// propagate through control context, so a loop counter that merely
// runs under a length guard stays LenVal-free while len(input) itself
// and arithmetic over it carry the bit. MayInput/MayArr track whether
// the value may hold the input array handle / any other array handle,
// which decides how loads and stores through it move taint.
type TV struct {
	Dep      bool
	Bytes    ByteSet
	LenVal   bool
	MayInput bool
	MayArr   bool
}

// joinWith folds o into v, reporting whether v changed.
func (v *TV) joinWith(o *TV) bool {
	changed := false
	if o.Dep && !v.Dep {
		v.Dep = true
		changed = true
	}
	if v.Bytes.UnionWith(&o.Bytes) {
		v.Dep = true
		changed = true
	}
	if o.LenVal && !v.LenVal {
		v.LenVal = true
		changed = true
	}
	if o.MayInput && !v.MayInput {
		v.MayInput = true
		changed = true
	}
	if o.MayArr && !v.MayArr {
		v.MayArr = true
		changed = true
	}
	return changed
}

// ContentDep reports whether the value may derive from input CONTENT
// (some byte offset), as opposed to length or control presence only.
func (v *TV) ContentDep() bool { return !v.Bytes.Empty() }

// taint is the whole-program input-dependency solver: a block-level
// flow-sensitive dataflow inside each function (expression temporaries
// are heavily reused across slots, so flow-insensitive slot summaries
// would smear unrelated taints together), composed with flow-
// insensitive context-insensitive function summaries across calls.
type taint struct {
	prog    *cfg.Program
	cg      *CallGraph
	entryID int
	// ivs caches the per-function interval analyses; index intervals at
	// load sites translate into byte ranges.
	ivs []*analysis.Intervals
	// cdep[fn][b] over-approximates the branch blocks b is (transitively)
	// control-dependent on: branches from which b is reachable and which
	// b does not post-dominate.
	cdep [][][]int

	// tin[fn][b] is the per-slot taint state at block b's entry.
	tin [][][]TV
	// condTV[fn][b] is the branch condition's taint at block b's
	// terminator (TermBr blocks only), the input to control contexts.
	condTV [][]TV
	// param[fn][i] joins the argument taints over every call site of fn.
	param [][]TV
	// ret[fn] summarizes fn's return value, including the implicit
	// dependency on which return statement executed.
	ret []TV
	// ctrlIn[fn] joins the callers' control contexts at fn's call
	// sites: input bytes that decide whether an activation of fn happens
	// at all.
	ctrlIn []TV

	// heap summarizes every value stored into any non-input array
	// (single-cell heap model); inputStored summarizes values possibly
	// stored INTO the input array (so input loads stay sound when the
	// program overwrites its input); allocLen summarizes dynamic
	// allocation sizes (what len() of a non-input array may depend on).
	heap        TV
	inputStored TV
	allocLen    TV

	changed bool
}

func newTaint(p *cfg.Program, cg *CallGraph, entryID int) *taint {
	t := &taint{prog: p, cg: cg, entryID: entryID}
	t.ivs = make([]*analysis.Intervals, len(p.Funcs))
	t.cdep = make([][][]int, len(p.Funcs))
	t.tin = make([][][]TV, len(p.Funcs))
	t.condTV = make([][]TV, len(p.Funcs))
	t.param = make([][]TV, len(p.Funcs))
	t.ret = make([]TV, len(p.Funcs))
	t.ctrlIn = make([]TV, len(p.Funcs))
	for fi, f := range p.Funcs {
		t.ivs[fi] = analysis.IntervalsOf(f)
		t.cdep[fi] = controlDeps(f)
		t.tin[fi] = make([][]TV, len(f.Blocks))
		for b := range f.Blocks {
			t.tin[fi][b] = make([]TV, f.FrameSize)
		}
		t.condTV[fi] = make([]TV, len(f.Blocks))
		t.param[fi] = make([]TV, f.NParams)
	}
	if entryID >= 0 && len(t.param[entryID]) > 0 {
		// The entry function's first parameter is the input array.
		t.param[entryID][0].MayInput = true
	}
	return t
}

// controlDeps over-approximates transitive control dependence: block b
// depends on branch u when b is reachable from u and does not
// post-dominate it. (Exact control dependence is a subset; the
// over-approximation is sound for dependency masks and cheap to
// compute from forward reachability plus the post-dominator tree.)
func controlDeps(f *cfg.Func) [][]int {
	n := len(f.Blocks)
	out := make([][]int, n)
	if n == 0 {
		return out
	}
	pdom := analysis.PostDominators(f)
	succs := analysis.Succs(f)
	// reach[u] = blocks reachable from u (excluding u unless cyclic).
	reach := make([]analysis.BitSet, n)
	for u := 0; u < n; u++ {
		reach[u] = analysis.NewBitSet(n)
		stack := []int{u}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range succs[v] {
				if !reach[u].Has(w) {
					reach[u].Set(w)
					stack = append(stack, w)
				}
			}
		}
	}
	for b := 0; b < n; b++ {
		for u := 0; u < n; u++ {
			if f.Blocks[u].Term.Kind != cfg.TermBr {
				continue
			}
			if (u == b || reach[u].Has(b)) && !analysis.Dominates(pdom, b, u) {
				out[b] = append(out[b], u)
			}
		}
	}
	return out
}

// join folds o into dst, recording global change.
func (t *taint) join(dst *TV, o *TV) {
	if dst.joinWith(o) {
		t.changed = true
	}
}

// ctrlLocal joins the condition taints of every branch block b is
// control-dependent on (intra-procedural part only). Control context
// carries Dep and content Bytes — which values a def takes can be
// selected by the condition — but not LenVal (a def under a length
// guard does not become length-valued) and not the handle bits.
func (t *taint) ctrlLocal(fi, b int) TV {
	var out TV
	for _, u := range t.cdep[fi][b] {
		out.joinWith(&t.condTV[fi][u])
	}
	out.LenVal = false
	out.MayInput = false
	out.MayArr = false
	return out
}

// Solve runs the whole-program fixpoint: functions in bottom-up SCC
// order per round, rounds until nothing changes. All lattice moves are
// monotone over finite domains (ByteSet range lists are capped), so
// termination is structural; the round cap is a defensive backstop.
func (t *taint) Solve() {
	for round := 0; round < 10000; round++ {
		t.changed = false
		for _, scc := range t.cg.SCCs {
			for _, fi := range scc {
				t.doFunc(fi)
			}
		}
		if !t.changed {
			return
		}
	}
}

// doFunc applies one flow-sensitive sweep over fn's reachable blocks,
// propagating entry states along interval-feasible edges.
func (t *taint) doFunc(fi int) {
	f := t.prog.Funcs[fi]
	ii := t.ivs[fi]
	entry := t.tin[fi][f.Entry()]
	for s := 0; s < f.NParams && s < len(entry); s++ {
		t.join(&entry[s], &t.param[fi][s])
	}
	env := analysis.NewEnv(f.FrameSize)
	cur := make([]TV, f.FrameSize)
	for _, b := range analysis.ReversePostorder(f) {
		if !ii.Reached[b] {
			continue
		}
		blk := &f.Blocks[b]
		ctrl := t.ctrlLocal(fi, b)
		ctrl.joinWith(&t.ctrlIn[fi])
		ctrl.LenVal, ctrl.MayInput, ctrl.MayArr = false, false, false
		copy(cur, t.tin[fi][b])
		env.CopyFrom(&ii.In[b])
		faulted := false
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if !t.stepTaint(fi, cur, &env, in, &ctrl) {
				// Guaranteed fault: the rest of the block (and its
				// terminator) never runs.
				faulted = true
				break
			}
		}
		if faulted {
			continue
		}
		switch blk.Term.Kind {
		case cfg.TermBr:
			t.join(&t.condTV[fi][b], &cur[blk.Term.Cond])
			if blk.EdgeThen >= 0 && ii.EdgeFeasible[blk.EdgeThen] {
				t.flowInto(fi, blk.Term.Then, cur)
			}
			if blk.EdgeElse >= 0 && ii.EdgeFeasible[blk.EdgeElse] {
				t.flowInto(fi, blk.Term.Else, cur)
			}
		case cfg.TermJmp:
			t.flowInto(fi, blk.Term.Then, cur)
		case cfg.TermRet:
			rv := t.ctrlLocal(fi, b)
			if blk.Term.Val >= 0 {
				rv.joinWith(&cur[blk.Term.Val])
			}
			t.join(&t.ret[fi], &rv)
		}
	}
}

// flowInto joins the block-exit state into a successor's entry state.
func (t *taint) flowInto(fi, succ int, cur []TV) {
	dst := t.tin[fi][succ]
	for i := range cur {
		t.join(&dst[i], &cur[i])
	}
}

// stepTaint applies one instruction's taint transfer to cur (and
// advances the interval environment). It returns false when the
// instruction is a guaranteed fault.
func (t *taint) stepTaint(fi int, cur []TV, env *analysis.Env, in *cfg.Instr, ctrl *TV) bool {
	switch in.Op {
	case cfg.OpConst:
		cur[in.Dst] = *ctrl
	case cfg.OpStr:
		v := TV{MayArr: true}
		v.joinWith(ctrl)
		cur[in.Dst] = v
	case cfg.OpMove:
		v := cur[in.A]
		v.joinWith(ctrl)
		cur[in.Dst] = v
	case cfg.OpBin:
		v := cur[in.A]
		v.joinWith(&cur[in.B])
		v.joinWith(ctrl)
		v.MayInput, v.MayArr = false, false
		cur[in.Dst] = v
	case cfg.OpUn:
		v := cur[in.A]
		v.joinWith(ctrl)
		v.MayInput, v.MayArr = false, false
		cur[in.Dst] = v
	case cfg.OpLoad:
		// Which cell is read depends on the index and on the handle, so
		// both taints flow into the result.
		h := cur[in.A]
		v := cur[in.B]
		v.joinWith(&h)
		v.joinWith(ctrl)
		v.MayInput, v.MayArr, v.LenVal = false, false, cur[in.B].LenVal
		if h.MayInput {
			bs := FromInterval(env.Val[in.B])
			w := TV{Dep: !bs.Empty(), Bytes: bs}
			v.joinWith(&w)
			// If the program may have overwritten its input array, the
			// loaded value also carries whatever was stored there.
			v.joinWith(&t.inputStored)
		}
		if h.MayArr {
			v.joinWith(&t.heap)
		}
		cur[in.Dst] = v
	case cfg.OpStore:
		v := cur[in.C]
		v.joinWith(&cur[in.B])
		v.joinWith(&cur[in.A])
		v.joinWith(ctrl)
		v.MayInput, v.MayArr = false, false
		h := &cur[in.A]
		if h.MayArr || !h.MayInput {
			// Unknown handles default to the heap summary.
			t.join(&t.heap, &v)
		}
		if h.MayInput {
			t.join(&t.inputStored, &v)
		}
	case cfg.OpCall:
		if in.Callee >= 0 && in.Callee < len(t.prog.Funcs) {
			callee := in.Callee
			for i, a := range in.Args {
				if i < len(t.param[callee]) {
					// Arguments carry their data taint plus the caller's
					// control context: input may select WHICH call site
					// (and thus which argument value) executes.
					av := cur[a]
					av.joinWith(ctrl)
					t.join(&t.param[callee][i], &av)
				}
			}
			t.join(&t.ctrlIn[callee], ctrl)
			v := t.ret[callee]
			v.joinWith(ctrl)
			cur[in.Dst] = v
		} else {
			v := *ctrl
			v.Dep, v.Bytes, v.LenVal = true, ByteSet{All: true}, true
			cur[in.Dst] = v
		}
	case cfg.OpBuiltin:
		var v TV
		v.joinWith(ctrl)
		for _, a := range in.Args {
			v.joinWith(&cur[a])
		}
		v.MayInput, v.MayArr = false, false
		switch in.Callee {
		case cfg.BLen:
			if len(in.Args) > 0 {
				h := cur[in.Args[0]]
				if h.MayInput {
					// len(input): dependent through length only.
					w := TV{Dep: true, LenVal: true}
					v.joinWith(&w)
				}
				if h.MayArr {
					v.joinWith(&t.allocLen)
				}
			}
		case cfg.BAlloc:
			t.join(&t.allocLen, &v)
			v.MayArr = true
		}
		cur[in.Dst] = v
	}
	return t.ivs[fi].StepInstr(env, in) == ""
}
