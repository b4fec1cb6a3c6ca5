package bytecode_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// repeatMachine is one subject lowered for one feedback, run on one
// machine for the whole fuzzing session, as a campaign runs it.
type repeatMachine struct {
	fb   instrument.Feedback
	mach *bytecode.Machine
	m    *coverage.Map
}

// run executes in from a reset map and returns the result with its
// pooled slices copied, and the map bytes.
func (r repeatMachine) run(in []byte) (vm.Result, []byte) {
	r.m.Reset()
	res := r.mach.Run("main", in)
	res.Output = append([]int64(nil), res.Output...)
	res.Cmps = append([]vm.CmpObs(nil), res.Cmps...)
	return res, append([]byte(nil), r.m.Bytes()...)
}

// FuzzMachineRepeat guards the precondition of the fuzzer's execution
// memo: what a machine computes for an input depends on the input
// alone, never on what the machine ran before. On one machine under
// path and under edge lowering, Run(a), Run(b), Run(a) must give both
// runs of a the same status, steps, return value, output, comparison
// log and crash, and the same map bytes. The subject byte picks one of
// the subjects; the step limit is lowered so gdk's seeds time out fast.
func FuzzMachineRepeat(f *testing.F) {
	names := subjects.Names()
	for i, name := range names {
		sub := subjects.Get(name)
		b := sub.Seeds[len(sub.Seeds)-1]
		if len(sub.Bugs) > 0 && sub.Bugs[0].Witness != nil {
			b = sub.Bugs[0].Witness
		}
		f.Add(uint8(i), sub.Seeds[0], b)
	}
	lim := vm.DefaultLimits()
	lim.MaxSteps = 1 << 16
	machines := map[int][]repeatMachine{}
	f.Fuzz(func(t *testing.T, subject uint8, a, b []byte) {
		if len(a) > 512 || len(b) > 512 {
			return
		}
		k := int(subject) % len(names)
		ms, ok := machines[k]
		if !ok {
			prog := subjects.Get(names[k]).MustProgram()
			for _, fb := range []instrument.Feedback{instrument.FeedbackPath, instrument.FeedbackEdge} {
				cp, ok := instrument.CompiledFor(fb, prog, instrument.Config{})
				if !ok {
					t.Fatalf("%s: no %v lowering", names[k], fb)
				}
				m := coverage.NewMap(coverage.DefaultMapSize)
				ms = append(ms, repeatMachine{fb: fb, mach: bytecode.NewMachine(cp, m, lim), m: m})
			}
			machines[k] = ms
		}
		for _, r := range ms {
			first, firstMap := r.run(a)
			r.run(b)
			again, againMap := r.run(a)
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%s/%v: Run(%q) after Run(%q) gave\n%+v\nthe first run gave\n%+v", names[k], r.fb, a, b, again, first)
			}
			if !bytes.Equal(firstMap, againMap) {
				t.Fatalf("%s/%v: Run(%q) after Run(%q) wrote different map bytes", names[k], r.fb, a, b)
			}
		}
	})
}
