package instrument

import (
	"repro/internal/balllarus"
	"repro/internal/cfg"
	"repro/internal/coverage"
)

// pathRuntime is the flattened per-function runtime plan of the
// Ball-Larus instrumentation.
type pathRuntime struct {
	edgeInc []int64
	// backIdx maps edge indices to entries of backs (-1 for non-back
	// edges), avoiding a map lookup on the hot path.
	backIdx []int32
	backs   []balllarus.BackAction
	retInc  []int64
	// hashMode marks functions whose acyclic path count exceeded
	// balllarus.MaxPaths; they fall back to a rolling hash over edge
	// indices, trading the spatially optimal encoding for robustness.
	hashMode bool
	salt     uint32
}

// PathTracer implements the paper's feedback: one word-sized register
// per activation accumulates Ball-Larus increments; completed acyclic
// paths (at returns and loop back edges) update the coverage map at
// index mix(path_id, function).
type PathTracer struct {
	m     *coverage.Map
	plans []pathRuntime
	// regs is the register stack, parallel to the call stack.
	regs []uint64
	// fns mirrors regs with the active function IDs.
	fns []int
}

// NewPathTracer builds the Ball-Larus path feedback tracer. Functions
// whose path counts overflow fall back to hash mode rather than failing
// the whole program.
func NewPathTracer(p *cfg.Program, m *coverage.Map) *PathTracer {
	t := &PathTracer{m: m, plans: make([]pathRuntime, len(p.Funcs))}
	for i, f := range p.Funcs {
		rt := &t.plans[i]
		rt.salt = fnSalt(i)
		enc, err := balllarus.Encode(f)
		if err != nil {
			rt.hashMode = true
			rt.backIdx = make([]int32, len(f.Edges))
			for e := range f.Edges {
				if f.BackEdge[e] {
					rt.backIdx[e] = 0 // any non-negative marks "back"
				} else {
					rt.backIdx[e] = -1
				}
			}
			continue
		}
		plan := enc.OptimizedPlan()
		rt.edgeInc = plan.EdgeInc
		rt.retInc = plan.RetInc
		rt.backIdx = make([]int32, len(f.Edges))
		for e := range rt.backIdx {
			rt.backIdx[e] = -1
		}
		for e, act := range plan.Back {
			rt.backIdx[e] = int32(len(rt.backs))
			rt.backs = append(rt.backs, act)
		}
	}
	return t
}

// HashMode reports whether fn fell back to hashed path IDs.
func (t *PathTracer) HashMode(fnID int) bool { return t.plans[fnID].hashMode }

// Begin implements vm.Tracer.
func (t *PathTracer) Begin() {
	t.regs = t.regs[:0]
	t.fns = t.fns[:0]
}

// EnterFunc implements vm.Tracer.
func (t *PathTracer) EnterFunc(f *cfg.Func) {
	t.regs = append(t.regs, 0)
	t.fns = append(t.fns, f.ID)
}

// record writes a completed path at the paper's index formula,
// (path_id ^ function) % map_size.
func (t *PathTracer) record(fnID int, pathID uint64) {
	t.m.Add(uint32(pathID) ^ t.plans[fnID].salt)
}

// Edge implements vm.Tracer.
func (t *PathTracer) Edge(f *cfg.Func, e int) {
	rt := &t.plans[f.ID]
	top := len(t.regs) - 1
	if rt.hashMode {
		if rt.backIdx[e] >= 0 {
			t.record(f.ID, t.regs[top])
			t.regs[top] = 0
			return
		}
		t.regs[top] = splitmix64(t.regs[top] ^ uint64(e+1))
		return
	}
	if bi := rt.backIdx[e]; bi >= 0 {
		act := rt.backs[bi]
		t.record(f.ID, t.regs[top]+uint64(act.EndInc))
		t.regs[top] = uint64(act.StartVal)
		return
	}
	t.regs[top] += uint64(rt.edgeInc[e])
}

// Ret implements vm.Tracer.
func (t *PathTracer) Ret(f *cfg.Func, b int) {
	rt := &t.plans[f.ID]
	top := len(t.regs) - 1
	r := t.regs[top]
	if !rt.hashMode {
		r += uint64(rt.retInc[b])
	}
	t.record(f.ID, r)
	t.regs = t.regs[:top]
	t.fns = t.fns[:len(t.fns)-1]
}

// PathAFLTracer approximates PathAFL's feedback (Appendix C): classic
// edge coverage augmented with a rolling hash over a pruned
// whole-program sequence of function entries, recorded in bounded
// segments with coarse-grained identifiers. It deliberately reproduces
// the abstraction-level differences the paper discusses: partial
// instrumentation (small functions pruned), aggressive segment
// truncation, and hash-based (collision-prone) path identity.
type PathAFLTracer struct {
	m       *coverage.Map
	base    []uint32
	tracked []bool
	salt    []uint32
	h       uint64
	n       int
}

// pathAFLTrackedFns reports which functions the pathafl feedback
// instruments with segment hashing: small functions are pruned.
func pathAFLTrackedFns(p *cfg.Program) []bool {
	tracked := make([]bool, len(p.Funcs))
	for i, f := range p.Funcs {
		tracked[i] = len(f.Blocks) >= pathAFLMinBlocks
	}
	return tracked
}

// NewPathAFLTracer builds the PathAFL-like tracer.
func NewPathAFLTracer(p *cfg.Program, m *coverage.Map) *PathAFLTracer {
	t := &PathAFLTracer{
		m:       m,
		base:    edgeBase(p),
		tracked: pathAFLTrackedFns(p),
		salt:    make([]uint32, len(p.Funcs)),
	}
	for i := range p.Funcs {
		t.salt[i] = fnSalt(i)
	}
	return t
}

// Begin implements vm.Tracer.
func (t *PathAFLTracer) Begin() {
	t.h = 0
	t.n = 0
}

func (t *PathAFLTracer) flush() {
	if t.n == 0 {
		return
	}
	// Coarse 16-bit path identifiers, as PathAFL's h-path hashing uses.
	t.m.Add(uint32(t.h) & 0xffff)
	t.h = 0
	t.n = 0
}

// EnterFunc implements vm.Tracer.
func (t *PathAFLTracer) EnterFunc(f *cfg.Func) {
	if !t.tracked[f.ID] {
		return
	}
	t.h = splitmix64(t.h ^ uint64(t.salt[f.ID]))
	t.n++
	if t.n >= pathAFLSegment {
		t.flush()
	}
}

// Edge implements vm.Tracer. PathAFL keeps AFL's edge coverage alongside
// its path hashes; both land in the same map here (edge IDs are exact,
// path hashes are masked to 16 bits).
func (t *PathAFLTracer) Edge(f *cfg.Func, e int) {
	t.m.Add(t.base[f.ID] + uint32(e))
}

// Ret implements vm.Tracer. Returning from a tracked function closes
// the current path segment, modelling PathAFL's recording of paths at
// call boundaries.
func (t *PathAFLTracer) Ret(f *cfg.Func, b int) {
	if t.tracked[f.ID] {
		t.flush()
	}
}
