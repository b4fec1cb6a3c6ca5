// Package instrument translates VM execution events into coverage map
// updates, implementing every feedback mechanism the paper evaluates:
//
//   - edge coverage (the pcguard baseline),
//   - Ball-Larus intra-procedural acyclic path coverage (the paper's
//     contribution),
//   - basic-block coverage and n-gram coverage (the sensitivity ladder
//     discussed in §VII),
//   - a PathAFL-like whole-program path-hash feedback (Appendix C).
//
// Tracers are constructed once per (program, feedback) pair and reused
// across executions; the caller owns the coverage map and resets it
// between runs. They drive the reference interpreter, the test oracle.
// Campaigns run each feedback's compile-time lowering instead
// (CompiledFor), which the differential suites hold to the tracers'
// maps byte for byte.
package instrument

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/vm"
)

// Feedback selects a coverage feedback mechanism.
type Feedback int

// Feedback mechanisms.
const (
	FeedbackEdge Feedback = iota
	FeedbackPath
	FeedbackBlock
	FeedbackNGram
	FeedbackPathAFL
)

var feedbackNames = map[Feedback]string{
	FeedbackEdge:    "edge",
	FeedbackPath:    "path",
	FeedbackBlock:   "block",
	FeedbackNGram:   "ngram",
	FeedbackPathAFL: "pathafl",
}

// String names the feedback.
func (f Feedback) String() string {
	if s, ok := feedbackNames[f]; ok {
		return s
	}
	return fmt.Sprintf("feedback-%d", int(f))
}

// ParseFeedback resolves a feedback name.
func ParseFeedback(s string) (Feedback, error) {
	for f, name := range feedbackNames {
		if name == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown feedback %q (want edge|path|block|ngram|pathafl)", s)
}

// MixMode selects how path IDs and function identifiers combine into a
// map index.
type MixMode int

// Mix modes.
const (
	// MixXOR is the paper's formula: (path_id XOR function) % map_size,
	// with the function identifier drawn from a per-function salt.
	MixXOR MixMode = iota
	// MixHash mixes the pair through a 64-bit finalizer before
	// truncation; the collision-rate tests compare the two.
	MixHash
)

// Config tunes tracer construction.
type Config struct {
	// NGram is the window length for FeedbackNGram (default 4).
	NGram int
	// NaivePlacement selects the unoptimized Ball-Larus placement
	// (every DAG edge carries its Val) instead of the spanning-tree
	// chord placement. Both produce identical path IDs; the flag exists
	// for the ablation bench.
	NaivePlacement bool
	// Mix selects the map-index mixing mode for path feedback.
	Mix MixMode
	// PathAFLMinBlocks is the function-size pruning threshold of the
	// PathAFL-like feedback (functions smaller than this are not
	// tracked in the path hash), mirroring PathAFL's partial
	// instrumentation. Default 4.
	PathAFLMinBlocks int
	// PathAFLSegment bounds the length of hashed whole-program path
	// segments. Default 32.
	PathAFLSegment int
	// SelectiveMaxPaths is the per-function acyclic path count above
	// which FeedbackSelective falls back to edge coverage (default
	// 256).
	SelectiveMaxPaths int
	// Analysis selects the static-analysis strictness. "strict" makes
	// New verify the IR up front and makes the bytecode compiler run
	// the IR verifier after every optimization pass plus the structural
	// verifier after lowering and fusion; "" (the default) skips
	// verification. Tests run strict; production fuzzing keeps it off
	// for speed.
	Analysis string
	// NoOpt disables the bytecode optimization passes (constant
	// folding, dead-store elimination, branch folding, dead-block
	// elimination). Optimization is on by default — the differential
	// tests pin its observational equivalence — and the flag exists for
	// the ablation bench and debugging.
	NoOpt bool
}

func (c Config) withDefaults() Config {
	if c.NGram <= 0 {
		c.NGram = 4
	}
	if c.PathAFLMinBlocks <= 0 {
		c.PathAFLMinBlocks = 4
	}
	if c.PathAFLSegment <= 0 {
		c.PathAFLSegment = 32
	}
	if c.SelectiveMaxPaths == 0 {
		c.SelectiveMaxPaths = 256
	}
	return c
}

// splitmix64 is the 64-bit finalizer used to derive salts and hashed
// indices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnSalt derives a stable pseudo-random identifier per function,
// playing the role of the compile-time random location IDs AFL-style
// instrumentation assigns.
func fnSalt(fnID int) uint32 { return uint32(splitmix64(uint64(fnID) + 0x5bd1e995)) }

// edgeBase computes, per function, the offset of its edges in the
// global edge ID space.
func edgeBase(p *cfg.Program) []uint32 {
	base := make([]uint32, len(p.Funcs))
	var n uint32
	for i, f := range p.Funcs {
		base[i] = n
		n += uint32(len(f.Edges))
	}
	return base
}

// blockBase is edgeBase for blocks.
func blockBase(p *cfg.Program) []uint32 {
	base := make([]uint32, len(p.Funcs))
	var n uint32
	for i, f := range p.Funcs {
		base[i] = n
		n += uint32(len(f.Blocks))
	}
	return base
}

// New constructs the tracer implementing fb over prog, writing to m.
// With cfg.Analysis set to "strict", the IR verifier runs over prog
// first and a violation fails construction.
func New(fb Feedback, prog *cfg.Program, m *coverage.Map, cfg Config) (vm.Tracer, error) {
	cfg = cfg.withDefaults()
	if cfg.Analysis == "strict" {
		if err := analysis.Verify(prog); err != nil {
			return nil, err
		}
	}
	switch fb {
	case FeedbackEdge:
		return NewEdgeTracer(prog, m), nil
	case FeedbackPath:
		return NewPathTracer(prog, m, cfg)
	case FeedbackBlock:
		return NewBlockTracer(prog, m), nil
	case FeedbackNGram:
		return NewNGramTracer(prog, m, cfg.NGram), nil
	case FeedbackPathAFL:
		return NewPathAFLTracer(prog, m, cfg), nil
	case FeedbackPath2:
		return NewPathNGramTracer(prog, m, cfg)
	case FeedbackSelective:
		return NewSelectivePathTracer(prog, m, cfg)
	}
	return nil, fmt.Errorf("unknown feedback %v", fb)
}

// EdgeTracer implements classic edge coverage with exact global edge
// IDs (no collisions when the map is at least as large as the program's
// edge count), the analogue of AFL++'s pcguard instrumentation.
type EdgeTracer struct {
	m    *coverage.Map
	base []uint32
}

// NewEdgeTracer builds an edge-coverage tracer.
func NewEdgeTracer(p *cfg.Program, m *coverage.Map) *EdgeTracer {
	return &EdgeTracer{m: m, base: edgeBase(p)}
}

// Begin implements vm.Tracer.
func (t *EdgeTracer) Begin() {}

// EnterFunc implements vm.Tracer.
func (t *EdgeTracer) EnterFunc(*cfg.Func) {}

// Edge implements vm.Tracer.
func (t *EdgeTracer) Edge(f *cfg.Func, e int) { t.m.Add(t.base[f.ID] + uint32(e)) }

// Ret implements vm.Tracer.
func (t *EdgeTracer) Ret(*cfg.Func, int) {}

// BlockTracer implements basic-block coverage (the n=0 rung of the
// sensitivity ladder).
type BlockTracer struct {
	m    *coverage.Map
	base []uint32
}

// NewBlockTracer builds a block-coverage tracer.
func NewBlockTracer(p *cfg.Program, m *coverage.Map) *BlockTracer {
	return &BlockTracer{m: m, base: blockBase(p)}
}

// Begin implements vm.Tracer.
func (t *BlockTracer) Begin() {}

// EnterFunc implements vm.Tracer.
func (t *BlockTracer) EnterFunc(f *cfg.Func) { t.m.Add(t.base[f.ID]) }

// Edge implements vm.Tracer.
func (t *BlockTracer) Edge(f *cfg.Func, e int) {
	t.m.Add(t.base[f.ID] + uint32(f.Edges[e].To))
}

// Ret implements vm.Tracer.
func (t *BlockTracer) Ret(*cfg.Func, int) {}

// NGramTracer hashes the window of the last n visited blocks into the
// map, the partial flow-sensitive feedback discussed in §VII.
type NGramTracer struct {
	m    *coverage.Map
	base []uint32
	n    int
	hist []uint32
	pos  int
}

// NewNGramTracer builds an n-gram tracer.
func NewNGramTracer(p *cfg.Program, m *coverage.Map, n int) *NGramTracer {
	return &NGramTracer{m: m, base: blockBase(p), n: n, hist: make([]uint32, n)}
}

// Begin implements vm.Tracer.
func (t *NGramTracer) Begin() {
	clear(t.hist)
	t.pos = 0
}

func (t *NGramTracer) visit(loc uint32) {
	t.hist[t.pos] = loc
	t.pos = (t.pos + 1) % t.n
	var h uint64 = 1469598103934665603
	for i := 0; i < t.n; i++ {
		h ^= uint64(t.hist[(t.pos+i)%t.n])
		h *= 1099511628211
	}
	t.m.Add(uint32(h))
}

// EnterFunc implements vm.Tracer.
func (t *NGramTracer) EnterFunc(f *cfg.Func) { t.visit(t.base[f.ID]) }

// Edge implements vm.Tracer.
func (t *NGramTracer) Edge(f *cfg.Func, e int) { t.visit(t.base[f.ID] + uint32(f.Edges[e].To)) }

// Ret implements vm.Tracer.
func (t *NGramTracer) Ret(*cfg.Func, int) {}
