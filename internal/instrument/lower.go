package instrument

import (
	"sync"

	"repro/internal/balllarus"
	"repro/internal/bytecode"
	"repro/internal/cfg"
)

// compileKey identifies one compiled (program, feedback, config)
// triple. Config is comparable (plain scalars), so the whole key is.
type compileKey struct {
	prog *cfg.Program
	fb   Feedback
	cfg  Config
}

// compileCache memoizes bytecode compilation per process: subjects are
// compiled once and shared across every fuzzer, campaign resume, and
// evalharness worker that uses the same (program, feedback, config).
var compileCache sync.Map // compileKey -> *bytecode.Program

// CompiledFor lowers prog's fb instrumentation into a compiled
// bytecode program, memoized process-wide. Every feedback New accepts
// has a lowering; ok is false only for an unknown feedback.
func CompiledFor(fb Feedback, prog *cfg.Program, c Config) (cp *bytecode.Program, ok bool) {
	c = c.withDefaults()
	key := compileKey{prog: prog, fb: fb, cfg: c}
	if v, hit := compileCache.Load(key); hit {
		return v.(*bytecode.Program), true
	}
	spec, ok := lowerSpec(fb, prog, c)
	if !ok {
		return nil, false
	}
	// Optimization is on by default; the differential tests pin its
	// observational equivalence against the reference interpreter.
	// Strict analysis adds the IR and bytecode verifiers to every
	// compile.
	spec.Opt = !c.NoOpt
	spec.Verify = c.Analysis == "strict"
	cp = bytecode.Compile(prog, spec)
	if v, raced := compileCache.LoadOrStore(key, cp); raced {
		// A concurrent caller won the store; use its program so pointer
		// identity holds process-wide.
		cp = v.(*bytecode.Program)
	}
	return cp, true
}

// lowerSpec builds the compile-time instrumentation spec mirroring the
// tracer the New dispatcher would construct for fb.
func lowerSpec(fb Feedback, prog *cfg.Program, c Config) (bytecode.Spec, bool) {
	switch fb {
	case FeedbackEdge:
		return bytecode.Spec{Kind: bytecode.ProbeEdge, Fns: baseFns(edgeBase(prog))}, true
	case FeedbackBlock:
		return bytecode.Spec{Kind: bytecode.ProbeBlock, Fns: baseFns(blockBase(prog))}, true
	case FeedbackNGram:
		return bytecode.Spec{Kind: bytecode.ProbeNGram, NGram: c.NGram, Fns: baseFns(blockBase(prog))}, true
	case FeedbackPath:
		return pathSpec(prog, c, false), true
	case FeedbackPath2:
		spec := pathSpec(prog, c, false)
		spec.Path2 = true
		return spec, true
	case FeedbackSelective:
		return pathSpec(prog, c, true), true
	case FeedbackPathAFL:
		base := edgeBase(prog)
		fns := make([]bytecode.FnSpec, len(prog.Funcs))
		for i, f := range prog.Funcs {
			fns[i] = bytecode.FnSpec{
				Base:    base[i],
				Salt:    fnSalt(i),
				Tracked: len(f.Blocks) >= c.PathAFLMinBlocks,
			}
		}
		return bytecode.Spec{Kind: bytecode.ProbePathAFL, Segment: c.PathAFLSegment, Fns: fns}, true
	}
	return bytecode.Spec{}, false
}

func baseFns(base []uint32) []bytecode.FnSpec {
	fns := make([]bytecode.FnSpec, len(base))
	for i, b := range base {
		fns[i] = bytecode.FnSpec{Base: b}
	}
	return fns
}

// pathSpec mirrors NewPathTracer's plan construction, including the
// hash-mode fallback for functions whose path counts overflow. With
// selective set it mirrors NewSelectivePathTracer instead: functions
// with more than c.SelectiveMaxPaths acyclic paths, or too many to
// encode, get edge probes.
func pathSpec(prog *cfg.Program, c Config, selective bool) bytecode.Spec {
	spec := bytecode.Spec{
		Kind:    bytecode.ProbePath,
		MixHash: c.Mix == MixHash,
		Fns:     make([]bytecode.FnSpec, len(prog.Funcs)),
	}
	base := edgeBase(prog)
	for i, f := range prog.Funcs {
		fs := &spec.Fns[i]
		fs.Salt = fnSalt(i)
		enc, err := balllarus.Encode(f)
		if selective && (err != nil || enc.NumPaths > uint64(c.SelectiveMaxPaths)) {
			*fs = bytecode.FnSpec{Edge: true, Base: base[i]}
			continue
		}
		if err != nil {
			fs.HashMode = true
			continue
		}
		var plan balllarus.Plan
		if c.NaivePlacement {
			plan = enc.NaivePlan()
		} else {
			plan = enc.OptimizedPlan()
		}
		fs.EdgeInc = plan.EdgeInc
		fs.RetInc = plan.RetInc
		fs.Back = plan.Back
	}
	return spec
}
