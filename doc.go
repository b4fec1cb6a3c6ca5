// Package repro reproduces "Towards Path-Aware Coverage-Guided Fuzzing"
// (CGO 2026) as a self-contained Go system: a MiniC compiler frontend,
// Ball-Larus acyclic-path instrumentation, a sanitizing interpreter VM,
// an AFL++-like coverage-guided fuzzer with pluggable feedback, the
// culling/opportunistic exploration-biasing strategies, 18
// UNIFUZZ-style benchmark subjects with ground-truth bug inventories,
// and an evaluation harness regenerating every table and figure of the
// paper.
//
// The root package holds the benchmark suite (bench_test.go); the
// library lives under internal/ (campaigns run through
// internal/strategy.Run, durable ones through internal/campaign) and
// the executables under cmd/.
package repro
