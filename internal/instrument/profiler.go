package instrument

import (
	"fmt"
	"sort"

	"repro/internal/balllarus"
	"repro/internal/cfg"
	"repro/internal/vm"
)

// Profiler is a standalone Ball-Larus path profiler: unlike the fuzzing
// tracers it records exact (function, path id) frequencies rather than
// hashed map updates, which is what the paper's Figure 1 illustrates
// and what performance-profiling clients of the encoding consume. It
// backs the paprof tool and the pathprofiler example.
type Profiler struct {
	prog   *cfg.Program
	encs   []*balllarus.Encoding
	plans  []balllarus.Plan
	counts map[pathKey]uint64
	regs   []uint64
}

type pathKey struct {
	fn int
	id uint64
}

// NewProfiler builds a profiler for prog. Functions whose acyclic path
// count exceeds balllarus.MaxPaths are rejected (the fuzzing tracers
// fall back to hashing instead; a profiler must stay exact).
func NewProfiler(prog *cfg.Program) (*Profiler, error) {
	p := &Profiler{
		prog:   prog,
		encs:   make([]*balllarus.Encoding, len(prog.Funcs)),
		plans:  make([]balllarus.Plan, len(prog.Funcs)),
		counts: make(map[pathKey]uint64),
	}
	for i, f := range prog.Funcs {
		enc, err := balllarus.Encode(f)
		if err != nil {
			return nil, fmt.Errorf("profiler: %w", err)
		}
		p.encs[i] = enc
		p.plans[i] = enc.OptimizedPlan()
	}
	return p, nil
}

// Begin implements vm.Tracer.
func (p *Profiler) Begin() { p.regs = p.regs[:0] }

// EnterFunc implements vm.Tracer.
func (p *Profiler) EnterFunc(f *cfg.Func) { p.regs = append(p.regs, 0) }

// Edge implements vm.Tracer.
func (p *Profiler) Edge(f *cfg.Func, e int) {
	plan := &p.plans[f.ID]
	top := len(p.regs) - 1
	if act, ok := plan.Back[e]; ok {
		p.counts[pathKey{fn: f.ID, id: p.regs[top] + uint64(act.EndInc)}]++
		p.regs[top] = uint64(act.StartVal)
		return
	}
	p.regs[top] += uint64(plan.EdgeInc[e])
}

// Ret implements vm.Tracer.
func (p *Profiler) Ret(f *cfg.Func, b int) {
	top := len(p.regs) - 1
	p.counts[pathKey{fn: f.ID, id: p.regs[top] + uint64(plan(p, f).RetInc[b])}]++
	p.regs = p.regs[:top]
}

func plan(p *Profiler, f *cfg.Func) *balllarus.Plan { return &p.plans[f.ID] }

// Reset clears accumulated counts.
func (p *Profiler) Reset() { clear(p.counts) }

// PathCount is one profiled acyclic path.
type PathCount struct {
	Func   string
	FnID   int
	PathID uint64
	Count  uint64
	// Blocks is the regenerated block sequence of the path.
	Blocks []balllarus.PathStep
}

// Counts returns the profile, ordered by function then descending
// count.
func (p *Profiler) Counts() []PathCount {
	var out []PathCount
	for k, c := range p.counts {
		pc := PathCount{
			Func:   p.prog.Funcs[k.fn].Name,
			FnID:   k.fn,
			PathID: k.id,
			Count:  c,
		}
		if steps, err := p.encs[k.fn].Regenerate(k.id); err == nil {
			pc.Blocks = steps
		}
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FnID != out[j].FnID {
			return out[i].FnID < out[j].FnID
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PathID < out[j].PathID
	})
	return out
}

// Profile runs one input under the profiler and returns its path
// counts. The profiler accumulates across calls until Reset.
func (p *Profiler) Profile(entry string, input []byte, lim vm.Limits) vm.Result {
	return vm.Run(p.prog, entry, input, p, lim)
}

// PathStats summarises the Ball-Larus numbering of one function.
type PathStats struct {
	Func           string
	Blocks         int
	Edges          int
	BackEdges      int
	NumPaths       uint64
	ProbesNaive    int
	ProbesOptimal  int
	HashedFallback bool
}

// PathReport returns per-function path statistics for prog — the data
// behind the paper's Figure 1 walkthrough. A function with too many
// paths to number exactly is marked HashedFallback.
func PathReport(prog *cfg.Program) []PathStats {
	var out []PathStats
	for _, f := range prog.Funcs {
		ps := PathStats{
			Func:      f.Name,
			Blocks:    len(f.Blocks),
			Edges:     len(f.Edges),
			BackEdges: f.NumBackEdges(),
		}
		if enc, err := balllarus.Encode(f); err != nil {
			ps.HashedFallback = true
		} else {
			ps.NumPaths = enc.NumPaths
			ps.ProbesNaive = enc.NaivePlan().Probes
			ps.ProbesOptimal = enc.OptimizedPlan().Probes
		}
		out = append(out, ps)
	}
	return out
}
