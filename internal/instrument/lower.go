package instrument

import (
	"sync"

	"repro/internal/balllarus"
	"repro/internal/bytecode"
	"repro/internal/cfg"
)

// compileKey identifies one compiled (program, feedback) pair.
type compileKey struct {
	prog *cfg.Program
	fb   Feedback
}

// compileCache memoizes bytecode compilation per process: subjects are
// compiled once and shared across every fuzzer, campaign resume, and
// evalharness worker that uses the same (program, feedback).
var compileCache sync.Map // compileKey -> *bytecode.Program

// CompiledFor lowers prog's fb instrumentation into a compiled
// bytecode program, memoized process-wide. Every feedback New accepts
// has a lowering; ok is false only for an unknown feedback. The Config
// argument is ignored.
func CompiledFor(fb Feedback, prog *cfg.Program, _ Config) (cp *bytecode.Program, ok bool) {
	key := compileKey{prog: prog, fb: fb}
	if v, hit := compileCache.Load(key); hit {
		return v.(*bytecode.Program), true
	}
	if cp, ok = Lower(fb, prog); !ok {
		return nil, false
	}
	if v, raced := compileCache.LoadOrStore(key, cp); raced {
		// A concurrent caller won the store; use its program so pointer
		// identity holds process-wide.
		cp = v.(*bytecode.Program)
	}
	return cp, true
}

// Lower is CompiledFor without the memo, for a program lowered once
// and dropped, such as a fuzzed one, which the memo would keep alive.
func Lower(fb Feedback, prog *cfg.Program) (*bytecode.Program, bool) {
	spec, ok := lowerSpec(fb, prog)
	if !ok {
		return nil, false
	}
	return bytecode.Compile(prog, spec), true
}

// lowerSpec builds the compile-time instrumentation spec mirroring the
// tracer the New dispatcher would construct for fb.
func lowerSpec(fb Feedback, prog *cfg.Program) (bytecode.Spec, bool) {
	switch fb {
	case FeedbackEdge:
		base := edgeBase(prog)
		fns := make([]bytecode.FnSpec, len(base))
		for i, b := range base {
			fns[i] = bytecode.FnSpec{Base: b}
		}
		return bytecode.Spec{Kind: bytecode.ProbeEdge, Fns: fns}, true
	case FeedbackPath:
		return pathSpec(prog, nil), true
	case FeedbackPath2:
		spec := pathSpec(prog, nil)
		spec.Path2 = true
		return spec, true
	case FeedbackSelective:
		return pathSpec(prog, SelectivePathFns(prog)), true
	case FeedbackPathAFL:
		base := edgeBase(prog)
		tracked := pathAFLTrackedFns(prog)
		fns := make([]bytecode.FnSpec, len(prog.Funcs))
		for i := range prog.Funcs {
			fns[i] = bytecode.FnSpec{Base: base[i], Salt: fnSalt(i), Tracked: tracked[i]}
		}
		return bytecode.Spec{Kind: bytecode.ProbePathAFL, Segment: pathAFLSegment, Fns: fns}, true
	}
	return bytecode.Spec{}, false
}

// pathSpec mirrors NewPathTracer's plan construction, including the
// hash-mode fallback for functions whose path counts overflow. With
// usePath set it mirrors NewSelectivePathTracer instead: functions it
// leaves false get edge probes.
func pathSpec(prog *cfg.Program, usePath []bool) bytecode.Spec {
	spec := bytecode.Spec{Kind: bytecode.ProbePath, Fns: make([]bytecode.FnSpec, len(prog.Funcs))}
	base := edgeBase(prog)
	for i, f := range prog.Funcs {
		fs := &spec.Fns[i]
		if usePath != nil && !usePath[i] {
			*fs = bytecode.FnSpec{Edge: true, Base: base[i]}
			continue
		}
		fs.Salt = fnSalt(i)
		enc, err := balllarus.Encode(f)
		if err != nil {
			fs.HashMode = true
			continue
		}
		plan := enc.OptimizedPlan()
		fs.EdgeInc = plan.EdgeInc
		fs.RetInc = plan.RetInc
		fs.Back = plan.Back
	}
	return spec
}
