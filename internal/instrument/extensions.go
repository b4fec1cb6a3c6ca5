package instrument

import (
	"repro/internal/balllarus"
	"repro/internal/cfg"
	"repro/internal/coverage"
)

// This file implements the extensions the paper sketches but does not
// evaluate:
//
//   - §VII: "we foresee an opportunity in extending our method to track
//     2-grams of specific acyclic paths, as when exiting loops or
//     crossing function boundaries (as a partial form of
//     context-sensitivity)" — PathNGramTracer.
//   - §VI: "selective forms of path sensitivity where only some program
//     regions get accurate path coverage information" —
//     SelectivePathTracer.
//
// Both reuse the Ball-Larus runtime plans of PathTracer and differ only
// in how completed path IDs reach the coverage map. Like every tracer
// they are the reference semantics: campaigns run their bytecode
// lowerings (lowerSpec: Spec.Path2 for the 2-grams, FnSpec.Edge for the
// per-function switch), which the differential suites hold to the
// tracers' maps byte for byte.

// Extension feedbacks (continuing the Feedback enumeration).
const (
	// FeedbackPath2 tracks 2-grams of consecutive acyclic paths within
	// an activation (across back edges) and across call boundaries.
	FeedbackPath2 Feedback = iota + 100
	// FeedbackSelective applies path feedback to functions whose
	// acyclic path count is at most Config.SelectiveMaxPaths and edge
	// feedback elsewhere.
	FeedbackSelective
)

func init() {
	feedbackNames[FeedbackPath2] = "path2"
	feedbackNames[FeedbackSelective] = "selective"
}

// PathNGramTracer implements the §VII extension: every completed
// acyclic path is recorded both individually (like PathTracer) and as a
// 2-gram with the previously completed path in the same activation
// context. Crossing a function boundary links the caller's last path
// with the callee's first, giving a partial form of
// context-sensitivity.
type PathNGramTracer struct {
	m     *coverage.Map
	plans []pathRuntime
	mix   MixMode
	regs  []uint64
	fns   []int
	// last[i] is the previous completed path's mixed ID in stack frame
	// i (0 when none yet).
	last []uint32
	// Records counts map updates (paths + 2-grams).
	Records uint64
}

// NewPathNGramTracer builds the 2-gram-of-paths tracer.
func NewPathNGramTracer(p *cfg.Program, m *coverage.Map, cfg Config) (*PathNGramTracer, error) {
	base, err := NewPathTracer(p, m, cfg)
	if err != nil {
		return nil, err
	}
	return &PathNGramTracer{m: m, plans: base.plans, mix: cfg.Mix}, nil
}

// Begin implements vm.Tracer.
func (t *PathNGramTracer) Begin() {
	t.regs = t.regs[:0]
	t.fns = t.fns[:0]
	t.last = t.last[:0]
}

// EnterFunc implements vm.Tracer.
func (t *PathNGramTracer) EnterFunc(f *cfg.Func) {
	// The callee's context seeds from the caller's last path: a crossed
	// function boundary forms a 2-gram, per the paper's sketch.
	seed := uint32(0)
	if n := len(t.last); n > 0 {
		seed = t.last[n-1]
	}
	t.regs = append(t.regs, 0)
	t.fns = append(t.fns, f.ID)
	t.last = append(t.last, seed)
}

func (t *PathNGramTracer) record(fnID int, pathID uint64) {
	var idx uint32
	switch t.mix {
	case MixXOR:
		idx = uint32(pathID) ^ t.plans[fnID].salt
	case MixHash:
		idx = uint32(splitmix64(pathID ^ (uint64(t.plans[fnID].salt) << 32)))
	}
	t.m.Add(idx)
	t.Records++
	top := len(t.last) - 1
	if prev := t.last[top]; prev != 0 {
		// The 2-gram entry: previous path x current path.
		t.m.Add(uint32(splitmix64(uint64(prev)<<32 | uint64(idx))))
		t.Records++
	}
	t.last[top] = idx | 1 // never zero, so chains continue
}

// Edge implements vm.Tracer.
func (t *PathNGramTracer) Edge(f *cfg.Func, e int) {
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
func (t *PathNGramTracer) Ret(f *cfg.Func, b int) {
	rt := &t.plans[f.ID]
	top := len(t.regs) - 1
	r := t.regs[top]
	if !rt.hashMode {
		r += uint64(rt.retInc[b])
	}
	t.record(f.ID, r)
	t.regs = t.regs[:top]
	t.fns = t.fns[:len(t.fns)-1]
	t.last = t.last[:top]
}

// SelectivePathTracer implements the §VI extension: functions whose
// acyclic path counts stay at or below a threshold get full path
// feedback; larger functions (where path feedback would dominate the
// map and the queue) fall back to plain edge coverage. The threshold
// trades sensitivity against queue explosion per function rather than
// globally.
type SelectivePathTracer struct {
	path *PathTracer
	edge *EdgeTracer
	// usePath[fnID] selects the feedback per function.
	usePath []bool
	// Selected counts path-instrumented functions.
	Selected int
}

// NewSelectivePathTracer builds the selective tracer. Threshold zero
// defaults to 256 paths.
func NewSelectivePathTracer(p *cfg.Program, m *coverage.Map, cfg Config) (*SelectivePathTracer, error) {
	cfg = cfg.withDefaults()
	pt, err := NewPathTracer(p, m, cfg)
	if err != nil {
		return nil, err
	}
	t := &SelectivePathTracer{
		path:    pt,
		edge:    NewEdgeTracer(p, m),
		usePath: make([]bool, len(p.Funcs)),
	}
	for i, f := range p.Funcs {
		if enc, err := balllarus.Encode(f); err == nil && enc.NumPaths <= uint64(cfg.SelectiveMaxPaths) {
			t.usePath[i] = true
			t.Selected++
		}
	}
	return t, nil
}

// Begin implements vm.Tracer.
func (t *SelectivePathTracer) Begin() { t.path.Begin() }

// EnterFunc implements vm.Tracer. The path register stack must stay
// aligned with the call stack, so every function pushes.
func (t *SelectivePathTracer) EnterFunc(f *cfg.Func) { t.path.EnterFunc(f) }

// Edge implements vm.Tracer.
func (t *SelectivePathTracer) Edge(f *cfg.Func, e int) {
	if t.usePath[f.ID] {
		t.path.Edge(f, e)
		return
	}
	t.edge.Edge(f, e)
	// Keep the register stack consistent across back edges even for
	// edge-mode functions (cheap: backIdx lookup only).
	rt := &t.path.plans[f.ID]
	if rt.backIdx[e] >= 0 {
		t.path.regs[len(t.path.regs)-1] = 0
	}
}

// Ret implements vm.Tracer.
func (t *SelectivePathTracer) Ret(f *cfg.Func, b int) {
	if t.usePath[f.ID] {
		t.path.Ret(f, b)
		return
	}
	// Pop without recording a path.
	t.path.regs = t.path.regs[:len(t.path.regs)-1]
	t.path.fns = t.path.fns[:len(t.path.fns)-1]
}
