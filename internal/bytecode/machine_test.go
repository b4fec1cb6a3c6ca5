package bytecode_test

import (
	"math/rand"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// BenchmarkMachineRun prices the dispatch loop on its own, without a
// campaign around it. Each sub-benchmark replays one subject's
// differential corpus (seeds, bug witnesses and 40 deterministic
// mutants, as TestDifferentialAllSubjects builds it) on one warmed
// machine under edge or path lowering, resetting the map before each
// run as the fuzzer does, and reports nanoseconds per step.
func BenchmarkMachineRun(b *testing.B) {
	for _, sub := range subjects.All() {
		prog := sub.MustProgram()
		inputs := subjectInputs(sub, rand.New(rand.NewSource(42)), 40)
		for _, fb := range []instrument.Feedback{instrument.FeedbackEdge, instrument.FeedbackPath} {
			b.Run(sub.Name+"/"+fb.String(), func(b *testing.B) {
				cp, ok := instrument.CompiledFor(fb, prog, instrument.Config{})
				if !ok {
					b.Fatalf("no %v lowering", fb)
				}
				m := coverage.NewMap(coverage.DefaultMapSize)
				mach := bytecode.NewMachine(cp, m, vm.DefaultLimits())
				var steps int64
				replay := func() {
					for _, in := range inputs {
						m.Reset()
						steps += mach.Run("main", in).Steps
					}
				}
				replay() // warmup: grows every pool to its high-water mark
				steps = 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					replay()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			})
		}
	}
}
