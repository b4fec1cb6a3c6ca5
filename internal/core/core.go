// Package core is the public facade of the reproduction: it wires the
// MiniC frontend, the Ball-Larus path instrumentation, the AFL++-like
// fuzzer, and the exploration-biasing strategies into a small API.
//
// Typical use:
//
//	t, err := core.Compile(src)
//	out, err := t.Fuzz(core.Campaign{Fuzzer: "cull", Budget: 200000})
//
// or, for the standalone path-profiling machinery of Figure 1:
//
//	prof, err := t.PathProfiler()
//	prof.Profile("main", input, vm.DefaultLimits())
package core

import (
	"fmt"

	"repro/internal/balllarus"
	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Target is a compiled program under test.
type Target struct {
	// Prog is the lowered program.
	Prog *cfg.Program
	// Entry is the fuzzing entry point ("main").
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

// Campaign configures a fuzzing campaign against a target.
type Campaign struct {
	// Fuzzer names the configuration: path, pcguard, cull, cull_r, opp,
	// pathafl, or afl (default path).
	Fuzzer strategy.Name
	// Budget is the execution budget (default 100000).
	Budget int64
	// RoundBudget overrides the culling round length (default
	// Budget/8).
	RoundBudget int64
	// Seeds is the initial corpus (a built-in fallback seed is used if
	// empty).
	Seeds [][]byte
	// Seed is the RNG seed (default 1).
	Seed int64
	// MapSize is the coverage map size (default
	// coverage.DefaultMapSize).
	MapSize int
	// Limits bounds individual executions.
	Limits vm.Limits
	// KeepCrashInputs retains the first crashing input per unique crash,
	// so callers can save or replay them.
	KeepCrashInputs bool
	// Engine selects the execution engine (fuzz.EngineAuto, the compiled
	// bytecode engine, by default; or fuzz.EngineCGT).
	Engine fuzz.Engine
	// Instr tunes instrumentation construction (analysis strictness,
	// optimizer toggle, mixing modes).
	Instr instrument.Config
	// AnalysisGuide enables analysis-guided fuzzing (interprocedural
	// input-dependency facts steering mutation, scheduling, cmplog,
	// and CGT elision; see fuzz.Options.AnalysisGuide).
	AnalysisGuide bool
	// Telemetry, when non-nil, receives counter snapshots and stage
	// spans from the campaign (observation only); a recorder with a
	// Status writer and a running collector prints the status line.
	Telemetry *telemetry.Recorder
}

// Outcome re-exports the strategy outcome.
type Outcome = strategy.Outcome

// Fuzz runs one campaign and returns its outcome.
func (t *Target) Fuzz(c Campaign) (*Outcome, error) {
	if c.Fuzzer == "" {
		c.Fuzzer = strategy.Path
	}
	if c.Budget <= 0 {
		c.Budget = 100000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	cfgr := strategy.Config{
		Opts: fuzz.Options{
			Seed:            c.Seed,
			MapSize:         c.MapSize,
			Entry:           t.Entry,
			Limits:          c.Limits,
			KeepCrashInputs: c.KeepCrashInputs,
			Engine:          c.Engine,
			Instr:           c.Instr,
			AnalysisGuide:   c.AnalysisGuide,
			Telemetry:       c.Telemetry,
		},
		Budget:      c.Budget,
		RoundBudget: c.RoundBudget,
		Seeds:       c.Seeds,
	}
	return strategy.Run(c.Fuzzer, t.Prog, cfgr)
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
