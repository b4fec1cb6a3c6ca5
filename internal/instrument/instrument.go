// Package instrument translates VM execution events into coverage map
// updates, implementing every feedback mechanism a campaign can run:
//
//   - edge coverage (the pcguard baseline),
//   - Ball-Larus intra-procedural acyclic path coverage (the paper's
//     contribution),
//   - a PathAFL-like whole-program path-hash feedback (Appendix C),
//   - the 2-grams-of-paths and selective path extensions (§VII, §VI).
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

	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/vm"
)

// Feedback selects a coverage feedback mechanism.
type Feedback int

// Feedback mechanisms. No Feedback value is persisted: journals,
// telemetry and checkpoints carry names.
const (
	FeedbackEdge Feedback = iota
	FeedbackPath
	FeedbackPathAFL
	// FeedbackPath2 tracks 2-grams of consecutive acyclic paths within
	// an activation (across back edges) and across call boundaries.
	FeedbackPath2
	// FeedbackSelective applies path feedback to the functions
	// SelectivePathFns picks and edge feedback elsewhere.
	FeedbackSelective
)

var feedbackNames = [...]string{
	FeedbackEdge:      "edge",
	FeedbackPath:      "path",
	FeedbackPathAFL:   "pathafl",
	FeedbackPath2:     "path2",
	FeedbackSelective: "selective",
}

// String names the feedback.
func (f Feedback) String() string {
	if f >= 0 && int(f) < len(feedbackNames) {
		return feedbackNames[f]
	}
	return fmt.Sprintf("feedback-%d", int(f))
}

// Fixed instrumentation parameters.
const (
	// pathAFLMinBlocks is the function-size pruning threshold of the
	// PathAFL-like feedback: functions smaller than this are not
	// tracked in the path hash, mirroring PathAFL's partial
	// instrumentation.
	pathAFLMinBlocks = 4
	// pathAFLSegment bounds the length of hashed whole-program path
	// segments.
	pathAFLSegment = 32
	// selectiveMaxPaths is the per-function acyclic path count above
	// which FeedbackSelective falls back to edge coverage.
	selectiveMaxPaths = 256
)

// Config is the parameter CompiledFor and New take; it has no fields.
//
// Deprecated: the -analysis and -opt knobs it carried are deleted, and
// every program compiles one way. It stays only for the campaign
// benchmark, which still passes Config{}.
type Config struct{}

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

// New constructs the tracer implementing fb over prog, writing to m.
// The Config argument is ignored.
func New(fb Feedback, prog *cfg.Program, m *coverage.Map, _ Config) (vm.Tracer, error) {
	switch fb {
	case FeedbackEdge:
		return NewEdgeTracer(prog, m), nil
	case FeedbackPath:
		return NewPathTracer(prog, m), nil
	case FeedbackPathAFL:
		return NewPathAFLTracer(prog, m), nil
	case FeedbackPath2:
		return NewPathNGramTracer(prog, m), nil
	case FeedbackSelective:
		return NewSelectivePathTracer(prog, m), nil
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
