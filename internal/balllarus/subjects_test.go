package balllarus

import (
	"errors"
	"testing"

	"repro/internal/cfg"
	"repro/internal/subjects"
)

// TestSubjectsPathRoundTrip is the decode round-trip bar on the real
// benchmark programs: for every function of every subject, every
// enumerated ENTRY→EXIT path must produce the same ID under the naive
// value sum (NaivePlan's increments) and the optimized chord sum
// (OptimizedPlan's increments), and Regenerate must invert that ID back
// to the exact block sequence. Out-of-range IDs must fail with the
// typed ErrPathOutOfRange so map-inversion tooling can tell a stale
// cell from corruption.
func TestSubjectsPathRoundTrip(t *testing.T) {
	// Cap per-function enumeration: some subjects have path counts far
	// past what a test should walk; the prefix still exercises every
	// decode mechanism (the dense ID space has no special tail).
	const limit = 1 << 13
	for _, name := range subjects.Names() {
		sub := subjects.Get(name)
		prog, err := sub.Program()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range prog.Funcs {
			enc, err := Encode(f)
			if err != nil {
				// Hash-fallback functions have no exact path table to
				// round-trip; the covmap tests cover their honesty.
				continue
			}
			paths := enumeratePaths(enc, limit)
			for _, p := range paths {
				naive := pathID(enc, p, func(d *DAGEdge) int64 { return d.Val })
				opt := pathID(enc, p, func(d *DAGEdge) int64 {
					if d.InTree {
						return 0
					}
					return d.Inc
				})
				if naive != opt {
					t.Fatalf("%s.%s: path %v: naive id %d != optimized id %d", name, f.Name, p, naive, opt)
				}
				steps, err := enc.Regenerate(uint64(naive))
				if err != nil {
					t.Fatalf("%s.%s: Regenerate(%d): %v", name, f.Name, naive, err)
				}
				got := make([]int, len(steps))
				for i, s := range steps {
					got[i] = s.Block
				}
				if want := blocksOfPath(enc, p); !equalInts(got, want) {
					t.Fatalf("%s.%s: id %d regenerated %v, want %v", name, f.Name, naive, got, want)
				}
			}
			if _, err := enc.Regenerate(enc.NumPaths); !errors.Is(err, ErrPathOutOfRange) {
				t.Fatalf("%s.%s: Regenerate(NumPaths) = %v, want ErrPathOutOfRange", name, f.Name, err)
			}
		}
	}
}

// BenchmarkBallLarusEncode measures the compile-time numbering cost
// over all benchmark subjects.
func BenchmarkBallLarusEncode(b *testing.B) {
	var funcs []*cfg.Func
	for _, sub := range subjects.All() {
		prog, err := sub.Program()
		if err != nil {
			b.Fatal(err)
		}
		funcs = append(funcs, prog.Funcs...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			if _, err := Encode(f); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(funcs)), "functions")
}
