// Package core wraps a compiled MiniC program with the Figure 1
// machinery: per-function Ball-Larus path statistics, the standalone
// path profiler, and uninstrumented execution. It does not fuzz;
// campaigns run through strategy.Run on Target.Prog:
//
//	t, err := core.Compile(src)
//	prof, err := t.PathProfiler()
//	prof.Profile("main", input, vm.DefaultLimits())
//	out, err := strategy.Run(strategy.Cull, t.Prog, strategy.Config{Budget: 200000})
package core

import (
	"fmt"

	"repro/internal/balllarus"
	"repro/internal/cfg"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// Target is a compiled program under test.
type Target struct {
	// Prog is the lowered program.
	Prog *cfg.Program
	// Entry is the entry function ("main").
	Entry string
}

// Compile parses, checks, and lowers MiniC source.
func Compile(src string) (*Target, error) {
	prog, err := cfg.Compile(src)
	if err != nil {
		return nil, err
	}
	t := &Target{Prog: prog, Entry: "main"}
	if prog.Func(t.Entry) == nil {
		return nil, fmt.Errorf("core: program has no %q function", t.Entry)
	}
	return t, nil
}

// FromProgram wraps an already-lowered program.
func FromProgram(prog *cfg.Program) *Target {
	return &Target{Prog: prog, Entry: "main"}
}

// PathProfiler builds the standalone Ball-Larus profiler for the
// target.
func (t *Target) PathProfiler() (*instrument.Profiler, error) {
	return instrument.NewProfiler(t.Prog)
}

// Execute runs one input uninstrumented and returns the VM result
// (crash reports included).
func (t *Target) Execute(input []byte) vm.Result {
	return vm.Run(t.Prog, t.Entry, input, vm.NullTracer{}, vm.DefaultLimits())
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

// PathReport returns per-function path statistics for the target — the
// data behind the paper's Figure 1 walkthrough.
func (t *Target) PathReport() []PathStats {
	var out []PathStats
	for _, f := range t.Prog.Funcs {
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
