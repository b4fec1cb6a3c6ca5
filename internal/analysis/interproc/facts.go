package interproc

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/analysis"
	"repro/internal/balllarus"
	"repro/internal/cfg"
	"repro/internal/lang"
)

// BranchFact is the input-dependency verdict for one conditional
// branch (a TermBr block), under the full dependency closure: the
// condition's own data taint joined with the control context deciding
// whether the block executes at all.
type BranchFact struct {
	Block int
	Pos   lang.Pos
	// Dep / Bytes: may input influence this branch's outcome (including
	// whether it executes), and through which content bytes. Dep with
	// empty Bytes means length-only dependency.
	Dep   bool
	Bytes ByteSet
	// CondIv is the condition's interval at the branch; a decided
	// interval (never zero, or always zero) means the intra-procedural
	// analysis already resolves the branch.
	CondIv analysis.Interval
}

// CmpSite is one comparison instruction (OpBin with a relational
// operator) in a reachable block, with the statically known operand
// intervals and a Dep flag: may mutation change either operand's
// VALUE — a content-byte dependency or a direct length dependency.
// Presence-only dependency (the comparison runs under input-dependent
// control but always sees the same values, e.g. a constant-bound loop
// counter behind a length guard) leaves Dep false: solving such a
// comparison by value substitution is provably fruitless.
type CmpSite struct {
	Block, Instr int
	Op           lang.Kind
	AIv, BIv     analysis.Interval
	Dep          bool
	Pos          lang.Pos
}

// FnFacts collects the per-function results.
type FnFacts struct {
	Name string
	// Branches holds one fact per reachable conditional branch,
	// ascending by block index.
	Branches []BranchFact
	// Cmps holds one site per comparison in a reachable block, in
	// (block, instr) order.
	Cmps []CmpSite
	// EncodeOK means the function's acyclic paths are Ball-Larus
	// numberable, NumPaths of them.
	EncodeOK bool
	NumPaths uint64

	branchIdx map[int]int
}

// Branch returns the fact for branch block b, or nil.
func (ff *FnFacts) Branch(b int) *BranchFact {
	if i, ok := ff.branchIdx[b]; ok {
		return &ff.Branches[i]
	}
	return nil
}

// Facts is the whole-program interprocedural analysis result.
type Facts struct {
	Prog  *cfg.Program
	Entry int
	CG    *CallGraph
	// Reachable[f] marks functions reachable from the entry along call
	// edges.
	Reachable []bool
	Fns       []*FnFacts
}

// factsKey memoizes For per (program, entry) pair.
type factsKey struct {
	prog  *cfg.Program
	entry int
}

var factsCache sync.Map // factsKey -> *Facts

// For computes (or returns the cached) interprocedural facts for prog
// with the given entry function index. The result is immutable and
// safe for concurrent use.
func For(prog *cfg.Program, entry int) *Facts {
	key := factsKey{prog, entry}
	if v, ok := factsCache.Load(key); ok {
		return v.(*Facts)
	}
	f := compute(prog, entry)
	if v, loaded := factsCache.LoadOrStore(key, f); loaded {
		return v.(*Facts)
	}
	return f
}

// ForProgram is For with the conventional "main" entry (falling back
// to function 0 when absent).
func ForProgram(prog *cfg.Program) *Facts {
	entry := 0
	if i, ok := prog.ByName["main"]; ok {
		entry = i
	}
	return For(prog, entry)
}

func compute(prog *cfg.Program, entry int) *Facts {
	cg := NewCallGraph(prog)
	t := newTaint(prog, cg, entry)
	t.Solve()

	out := &Facts{
		Prog:      prog,
		Entry:     entry,
		CG:        cg,
		Reachable: cg.ReachableFrom(entry),
		Fns:       make([]*FnFacts, len(prog.Funcs)),
	}
	for fi, f := range prog.Funcs {
		ff := &FnFacts{Name: f.Name, branchIdx: map[int]int{}}
		out.Fns[fi] = ff
		ii := t.ivs[fi]
		env := analysis.NewEnv(f.FrameSize)
		cur := make([]TV, f.FrameSize)
		for b := range f.Blocks {
			if !ii.Reached[b] {
				continue
			}
			blk := &f.Blocks[b]
			// Replay the converged transfer through the block to read
			// per-instruction taints and intervals (the solver is at its
			// fixpoint, so the replay's summary joins are no-ops).
			ctrl := t.ctrlLocal(fi, b)
			ctrl.joinWith(&t.ctrlIn[fi])
			ctrl.LenVal, ctrl.MayInput, ctrl.MayArr = false, false, false
			copy(cur, t.tin[fi][b])
			env.CopyFrom(&ii.In[b])
			faulted := false
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if in.Op == cfg.OpBin && isCmpKind(in.Sub) {
					dep := cur[in.A].ContentDep() || cur[in.B].ContentDep() ||
						cur[in.A].LenVal || cur[in.B].LenVal
					ff.Cmps = append(ff.Cmps, CmpSite{
						Block: b, Instr: i,
						Op:  in.Sub,
						AIv: env.Val[in.A], BIv: env.Val[in.B],
						Dep: dep,
						Pos: in.Pos,
					})
				}
				if !t.stepTaint(fi, cur, &env, in, &ctrl) {
					faulted = true
					break
				}
			}
			if faulted || blk.Term.Kind != cfg.TermBr {
				continue
			}
			full := cur[blk.Term.Cond]
			full.joinWith(&ctrl)
			ff.branchIdx[b] = len(ff.Branches)
			ff.Branches = append(ff.Branches, BranchFact{
				Block:  b,
				Pos:    blk.Term.Pos,
				Dep:    full.Dep,
				Bytes:  full.Bytes,
				CondIv: env.Val[blk.Term.Cond],
			})
		}
		if enc, err := balllarus.Encode(f); err == nil {
			ff.EncodeOK, ff.NumPaths = true, enc.NumPaths
		}
	}
	return out
}

func isCmpKind(k lang.Kind) bool {
	switch k {
	case lang.EQ, lang.NE, lang.LT, lang.LE, lang.GT, lang.GE:
		return true
	}
	return false
}

// CmpSkipRatio returns (input-independent comparison sites, total
// comparison sites) across reachable functions: the comparisons whose
// operand values no input can change, as paprof -facts prints them.
func (fs *Facts) CmpSkipRatio() (indep, total int) {
	for fi, ff := range fs.Fns {
		if !fs.Reachable[fi] {
			continue
		}
		for i := range ff.Cmps {
			total++
			if !ff.Cmps[i].Dep {
				indep++
			}
		}
	}
	return indep, total
}

// Dump writes a deterministic human-readable rendering of the facts —
// the backing of paprof -facts and its golden test.
func (fs *Facts) Dump(w io.Writer) {
	indep, total := fs.CmpSkipRatio()
	fmt.Fprintf(w, "entry: %s\n", fs.Prog.Funcs[fs.Entry].Name)
	fmt.Fprintf(w, "functions: %d reachable: %d\n", len(fs.Prog.Funcs), countTrue(fs.Reachable))
	fmt.Fprintf(w, "cmp sites: %d input-independent: %d\n", total, indep)
	for fi, f := range fs.Prog.Funcs {
		ff := fs.Fns[fi]
		if len(ff.Branches) == 0 && len(ff.Cmps) == 0 && !ff.EncodeOK {
			continue
		}
		reach := "unreachable"
		if fs.Reachable[fi] {
			reach = "reachable"
		}
		paths := "paths: not-numberable"
		if ff.EncodeOK {
			paths = fmt.Sprintf("paths: %d", ff.NumPaths)
		}
		fmt.Fprintf(w, "\nfunc %s (%s, %s)\n", f.Name, reach, paths)
		for i := range ff.Branches {
			bf := &ff.Branches[i]
			dep := "indep"
			if bf.Dep {
				dep = "dep " + bf.Bytes.String()
				if bf.Bytes.Empty() {
					dep = "dep len-only"
				}
			}
			fmt.Fprintf(w, "  branch b%d @%d:%d %s\n", bf.Block, bf.Pos.Line, bf.Pos.Col, dep)
		}
		for i := range ff.Cmps {
			cs := &ff.Cmps[i]
			dep := "indep"
			if cs.Dep {
				dep = "dep"
			}
			fmt.Fprintf(w, "  cmp b%d#%d @%d:%d %v %s a=%s b=%s\n",
				cs.Block, cs.Instr, cs.Pos.Line, cs.Pos.Col, cs.Op, dep,
				ivString(cs.AIv), ivString(cs.BIv))
		}
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func ivString(iv analysis.Interval) string {
	if iv.IsBottom() {
		return "bot"
	}
	if iv.Lo == math.MinInt64 && iv.Hi == math.MaxInt64 {
		return "top"
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}
