package bytecode_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// allFeedbacks are the feedback mechanisms, every one of which has a
// bytecode lowering.
var allFeedbacks = []instrument.Feedback{
	instrument.FeedbackEdge,
	instrument.FeedbackPath,
	instrument.FeedbackBlock,
	instrument.FeedbackNGram,
	instrument.FeedbackPathAFL,
	instrument.FeedbackPath2,
	instrument.FeedbackSelective,
}

// diffPair runs one input under the reference interpreter and the
// bytecode machine and asserts observational identity: status, return
// value, step count, output, comparison log, crash report, and the
// raw coverage map bytes.
type diffPair struct {
	prog *cfg.Program
	tr   vm.Tracer
	mach *bytecode.Machine
	m1   *coverage.Map
	m2   *coverage.Map
	lim  vm.Limits
}

func newDiffPair(t *testing.T, prog *cfg.Program, fb instrument.Feedback, c instrument.Config, mapSize int, lim vm.Limits) *diffPair {
	t.Helper()
	m1 := coverage.NewMap(mapSize)
	tr, err := instrument.New(fb, prog, m1, c)
	if err != nil {
		t.Fatalf("tracer: %v", err)
	}
	cp, ok := instrument.CompiledFor(fb, prog, c)
	if !ok {
		t.Fatalf("feedback %v has no bytecode lowering", fb)
	}
	m2 := coverage.NewMap(mapSize)
	return &diffPair{prog: prog, tr: tr, mach: bytecode.NewMachine(cp, m2, lim), m1: m1, m2: m2, lim: lim}
}

func (d *diffPair) check(t *testing.T, label string, input []byte) {
	t.Helper()
	d.m1.Reset()
	r1 := vm.Run(d.prog, "main", input, d.tr, d.lim)
	d.m2.Reset()
	r2 := d.mach.Run("main", input)

	if r1.Status != r2.Status {
		t.Fatalf("%s input %q: status interp=%v bytecode=%v", label, input, r1.Status, r2.Status)
	}
	if r1.Ret != r2.Ret {
		t.Fatalf("%s input %q: ret interp=%d bytecode=%d", label, input, r1.Ret, r2.Ret)
	}
	if r1.Steps != r2.Steps {
		t.Fatalf("%s input %q: steps interp=%d bytecode=%d", label, input, r1.Steps, r2.Steps)
	}
	if len(r1.Output) != len(r2.Output) {
		t.Fatalf("%s input %q: output len interp=%d bytecode=%d", label, input, len(r1.Output), len(r2.Output))
	}
	for i := range r1.Output {
		if r1.Output[i] != r2.Output[i] {
			t.Fatalf("%s input %q: output[%d] interp=%d bytecode=%d", label, input, i, r1.Output[i], r2.Output[i])
		}
	}
	if len(r1.Cmps) != len(r2.Cmps) {
		t.Fatalf("%s input %q: cmps len interp=%d bytecode=%d", label, input, len(r1.Cmps), len(r2.Cmps))
	}
	for i := range r1.Cmps {
		if r1.Cmps[i] != r2.Cmps[i] {
			t.Fatalf("%s input %q: cmps[%d] interp=%+v bytecode=%+v", label, input, i, r1.Cmps[i], r2.Cmps[i])
		}
	}
	if !reflect.DeepEqual(r1.Crash, r2.Crash) {
		t.Fatalf("%s input %q: crash mismatch\ninterp:   %+v\nbytecode: %+v", label, input, r1.Crash, r2.Crash)
	}
	if !bytes.Equal(d.m1.Bytes(), d.m2.Bytes()) {
		t.Fatalf("%s input %q: coverage maps differ", label, input)
	}
}

// subjectInputs builds the differential corpus for one subject: its
// seeds, every planted-bug witness (crash-path coverage), and
// deterministic random mutants of both.
func subjectInputs(sub *subjects.Subject, rng *rand.Rand, mutants int) [][]byte {
	var inputs [][]byte
	inputs = append(inputs, []byte{})
	inputs = append(inputs, sub.Seeds...)
	for _, bug := range sub.Bugs {
		inputs = append(inputs, bug.Witness)
	}
	base := append([][]byte(nil), inputs...)
	for i := 0; i < mutants; i++ {
		src := base[rng.Intn(len(base))]
		mut := append([]byte(nil), src...)
		switch rng.Intn(4) {
		case 0: // flip bytes
			for j := 0; j < 1+rng.Intn(4) && len(mut) > 0; j++ {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
		case 1: // truncate
			if len(mut) > 1 {
				mut = mut[:rng.Intn(len(mut))]
			}
		case 2: // extend with random bytes
			for j := 0; j < 1+rng.Intn(16); j++ {
				mut = append(mut, byte(rng.Intn(256)))
			}
		case 3: // fully random
			mut = make([]byte, rng.Intn(64))
			rng.Read(mut)
		}
		inputs = append(inputs, mut)
	}
	return inputs
}

// TestDifferentialAllSubjects is the tentpole's correctness contract:
// every subject, under every supported feedback, across seeds, bug
// witnesses, and randomized mutants, produces byte-identical coverage
// maps, identical crash reports, and identical results under the
// reference interpreter and the bytecode engine.
func TestDifferentialAllSubjects(t *testing.T) {
	for _, sub := range subjects.All() {
		sub := sub
		t.Run(sub.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := sub.Program()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			inputs := subjectInputs(sub, rng, 40)
			for _, fb := range allFeedbacks {
				d := newDiffPair(t, prog, fb, instrument.Config{}, 1<<16, vm.DefaultLimits())
				for _, in := range inputs {
					d.check(t, fb.String(), in)
				}
			}
		})
	}
}

// TestDifferentialTightLimits exercises the resource-exhaustion crash
// paths (timeout, stack overflow, OOM, bad alloc, cmp-observation cap)
// under deliberately small limits.
func TestDifferentialTightLimits(t *testing.T) {
	tight := []vm.Limits{
		{MaxSteps: 100, MaxDepth: 64, MaxHeapCells: 1 << 22, MaxAlloc: 1 << 20, MaxCmpObs: 64},
		{MaxSteps: 1 << 20, MaxDepth: 3, MaxHeapCells: 1 << 22, MaxAlloc: 1 << 20, MaxCmpObs: 64},
		{MaxSteps: 1 << 20, MaxDepth: 64, MaxHeapCells: 70, MaxAlloc: 8, MaxCmpObs: 2},
		{MaxSteps: 333, MaxDepth: 5, MaxHeapCells: 256, MaxAlloc: 64, MaxCmpObs: 8},
	}
	for _, name := range []string{"cflow", "flvmeta", "lame"} {
		sub := subjects.Get(name)
		if sub == nil {
			t.Fatalf("unknown subject %s", name)
		}
		prog := sub.MustProgram()
		rng := rand.New(rand.NewSource(7))
		inputs := subjectInputs(sub, rng, 20)
		for li, lim := range tight {
			for _, fb := range allFeedbacks {
				d := newDiffPair(t, prog, fb, instrument.Config{}, 1<<14, lim)
				for _, in := range inputs {
					d.check(t, fmt.Sprintf("%s/lim%d/%s", name, li, fb), in)
				}
			}
		}
	}
}

// TestDifferentialConfigVariants pins the non-default instrumentation
// configurations: hash mixing, naive Ball-Larus placement, alternative
// n-gram window lengths, and selective thresholds that split cflow's
// functions between path and edge probes — 12 is exactly is_letter's
// path count, so a threshold off by one flips that function.
func TestDifferentialConfigVariants(t *testing.T) {
	configs := []instrument.Config{
		{Mix: instrument.MixHash},
		{NaivePlacement: true},
		{NGram: 2},
		{NGram: 8},
		{PathAFLMinBlocks: 2, PathAFLSegment: 4},
		{SelectiveMaxPaths: 4},
		{SelectiveMaxPaths: 12},
	}
	sub := subjects.Get("cflow")
	prog := sub.MustProgram()
	rng := rand.New(rand.NewSource(11))
	inputs := subjectInputs(sub, rng, 25)
	for ci, c := range configs {
		for _, fb := range allFeedbacks {
			d := newDiffPair(t, prog, fb, c, 1<<15, vm.DefaultLimits())
			for _, in := range inputs {
				d.check(t, fmt.Sprintf("cfg%d/%s", ci, fb), in)
			}
		}
	}
}

// hashModeSrc builds a function with more than 2^48 acyclic paths, so
// the path feedback's hash-mode fallback (including its back-edge
// behaviour) is exercised under both engines.
func hashModeSrc() string {
	var b strings.Builder
	b.WriteString("func wide(x) {\n    var acc = 0;\n")
	for i := 0; i < 52; i++ {
		fmt.Fprintf(&b, "    if (x & %d) { acc = acc + %d; } else { acc = acc - 1; }\n", 1<<(i%8), i+1)
	}
	b.WriteString(`
    var i = 0;
    while (i < 3) {
        if (x & 1) { acc = acc + i; }
        x = x / 2;
        i = i + 1;
    }
    return acc;
}
func main(input) {
    var x = 7;
    if (len(input) > 0) { x = input[0]; }
    if (len(input) > 1) { x = x * input[1]; }
    return wide(x);
}
`)
	return b.String()
}

func TestDifferentialHashModeFallback(t *testing.T) {
	prog, err := cfg.Compile(hashModeSrc())
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the wide function must actually be in hash mode.
	m := coverage.NewMap(1 << 12)
	pt, err := instrument.NewPathTracer(prog, m, instrument.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wide := prog.Func("wide")
	if wide == nil || !pt.HashMode(wide.ID) {
		t.Fatal("wide did not fall back to hash mode; widen the test program")
	}
	rng := rand.New(rand.NewSource(3))
	for _, fb := range []instrument.Feedback{instrument.FeedbackPath, instrument.FeedbackPath2, instrument.FeedbackSelective} {
		for _, mix := range []instrument.Config{{}, {Mix: instrument.MixHash}} {
			d := newDiffPair(t, prog, fb, mix, 1<<12, vm.DefaultLimits())
			for i := 0; i < 50; i++ {
				in := make([]byte, rng.Intn(4))
				rng.Read(in)
				d.check(t, "hashmode/"+fb.String(), in)
			}
		}
	}
}

// TestDifferentialInjectedFault pins the fault-injection panic: both
// engines must panic at the same step with the same message, so the
// campaign durability tests behave identically on either engine.
func TestDifferentialInjectedFault(t *testing.T) {
	sub := subjects.Get("cflow")
	prog := sub.MustProgram()
	lim := vm.DefaultLimits()
	lim.InjectPanicAtStep = 25
	capture := func(run func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		run()
		return ""
	}
	in := sub.Seeds[0]
	m1 := coverage.NewMap(1 << 14)
	tr, err := instrument.New(instrument.FeedbackPath, prog, m1, instrument.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := instrument.CompiledFor(instrument.FeedbackPath, prog, instrument.Config{})
	if !ok {
		t.Fatal("no lowering for path feedback")
	}
	m2 := coverage.NewMap(1 << 14)
	mach := bytecode.NewMachine(cp, m2, lim)
	msg1 := capture(func() { vm.Run(prog, "main", in, tr, lim) })
	msg2 := capture(func() { mach.Run("main", in) })
	if msg1 == "" || msg1 != msg2 {
		t.Fatalf("injected fault mismatch: interp %q bytecode %q", msg1, msg2)
	}
}

// TestDifferentialMissingEntry pins the no-entry-function report.
func TestDifferentialMissingEntry(t *testing.T) {
	prog := subjects.Get("cflow").MustProgram()
	cp, _ := instrument.CompiledFor(instrument.FeedbackEdge, prog, instrument.Config{})
	m := coverage.NewMap(1 << 12)
	mach := bytecode.NewMachine(cp, m, vm.DefaultLimits())
	r1 := vm.Run(prog, "nosuch", nil, vm.NullTracer{}, vm.DefaultLimits())
	r2 := mach.Run("nosuch", nil)
	if r1.Status != r2.Status || !reflect.DeepEqual(r1.Crash, r2.Crash) {
		t.Fatalf("missing-entry mismatch: interp %+v bytecode %+v", r1.Crash, r2.Crash)
	}
}
