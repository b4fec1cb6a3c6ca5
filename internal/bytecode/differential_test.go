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

func newDiffPair(t *testing.T, prog *cfg.Program, fb instrument.Feedback, mapSize int, lim vm.Limits) *diffPair {
	t.Helper()
	m1 := coverage.NewMap(mapSize)
	tr, err := instrument.New(fb, prog, m1, instrument.Config{})
	if err != nil {
		t.Fatalf("tracer: %v", err)
	}
	cp, ok := instrument.CompiledFor(fb, prog, instrument.Config{})
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
				d := newDiffPair(t, prog, fb, 1<<16, vm.DefaultLimits())
				for _, in := range inputs {
					d.check(t, fb.String(), in)
				}
			}
		})
	}
}

// TestDifferentialOptOff pins the lowering with the optimizer off, now
// the only lowering, to the reference interpreter, and the deprecated
// Spec.Opt to a no-op: campbench's uninstrumented baseline, a ProbeNone
// spec with Opt set, lowers to as many instructions as one without and
// matches the interpreter running no tracer.
func TestDifferentialOptOff(t *testing.T) {
	for _, name := range []string{"cflow", "jq", "sqlite3"} {
		sub := subjects.Get(name)
		if sub == nil {
			t.Fatalf("unknown subject %s", name)
		}
		prog := sub.MustProgram()
		rng := rand.New(rand.NewSource(23))
		inputs := subjectInputs(sub, rng, 25)
		for _, fb := range allFeedbacks {
			d := newDiffPair(t, prog, fb, 1<<16, vm.DefaultLimits())
			for _, in := range inputs {
				d.check(t, name+"/noopt/"+fb.String(), in)
			}
		}

		plain := bytecode.Compile(prog, bytecode.Spec{Kind: bytecode.ProbeNone})
		opt := bytecode.Compile(prog, bytecode.Spec{Kind: bytecode.ProbeNone, Opt: true})
		if opt.NumInstrs() != plain.NumInstrs() {
			t.Fatalf("%s: Opt changed the lowering: %d instructions, %d without", name, opt.NumInstrs(), plain.NumInstrs())
		}
		m1, m2 := coverage.NewMap(1<<16), coverage.NewMap(1<<16)
		lim := vm.DefaultLimits()
		d := &diffPair{prog: prog, tr: vm.NullTracer{}, mach: bytecode.NewMachine(opt, m2, lim), m1: m1, m2: m2, lim: lim}
		for _, in := range inputs {
			d.check(t, name+"/none", in)
		}
	}
}

// TestStrictVerifyAllSubjects compiles every subject under every
// feedback. The structural verifier runs on every compile and
// CompiledFor panics on any violation, so this passes only when the
// verifier accepts all of them.
func TestStrictVerifyAllSubjects(t *testing.T) {
	for _, sub := range subjects.All() {
		prog, err := sub.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, fb := range allFeedbacks {
			if _, ok := instrument.CompiledFor(fb, prog, instrument.Config{}); !ok {
				t.Fatalf("%s/%s: no bytecode lowering", sub.Name, fb)
			}
		}
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
				d := newDiffPair(t, prog, fb, 1<<14, lim)
				for _, in := range inputs {
					d.check(t, fmt.Sprintf("%s/lim%d/%s", name, li, fb), in)
				}
			}
		}
	}
}

// recursiveSrc recurses one activation of walk per level, up to 55
// levels deep. walk has more than the 4 blocks pathafl tracks, and no
// tracked function returns before the deepest level, so any depth of 32
// or more fills a whole pathafl segment and reaches its overflow flush
// by construction; the subjects reach it only through the few inputs
// that happen to nest that deep.
const recursiveSrc = `
func walk(n, x) {
    var s = 0;
    if (x & 1) { s = s + 1; } else { s = s - 1; }
    if (n > 0) { s = s + walk(n - 1, x / 2 + n); }
    return s;
}
func main(input) {
    var d = 40;
    if (len(input) > 0) { d = input[0] % 56; }
    var x = 0;
    if (len(input) > 1) { x = input[1]; }
    return walk(d, x);
}
`

// diamondsSrc defines a function named name with n independent
// if/else diamonds in sequence, so 2^n acyclic paths.
func diamondsSrc(name string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(x) {\n    var s = 0;\n", name)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    if (x & %d) { s = s + %d; } else { s = s - 1; }\n", 1<<i, i+1)
	}
	b.WriteString("    return s;\n}\n")
	return b.String()
}

// thresholdSrc straddles the selective feedback's 256-path threshold:
// d8 has exactly 256 paths and gets path probes, d9 has 512 and gets
// edge probes.
func thresholdSrc() string {
	return diamondsSrc("d8", 8) + diamondsSrc("d9", 9) + `
func main(input) {
    var x = 0;
    if (len(input) > 0) { x = input[0]; }
    if (len(input) > 1) { x = x + input[1] * 256; }
    return d8(x) + d9(x);
}
`
}

// TestDifferentialThresholdPrograms holds the fixed instrumentation
// thresholds under differential test on programs written to cross
// them: recursion deep enough to overflow a pathafl segment, and a
// pair of functions on either side of the selective path threshold.
func TestDifferentialThresholdPrograms(t *testing.T) {
	recursive, err := cfg.Compile(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := cfg.Compile(thresholdSrc())
	if err != nil {
		t.Fatal(err)
	}
	sel := instrument.SelectivePathFns(threshold)
	if !sel[threshold.ByName["d8"]] || sel[threshold.ByName["d9"]] {
		t.Fatalf("selective path functions %v: want d8 path-probed and d9 edge-probed", sel)
	}
	rng := rand.New(rand.NewSource(17))
	var inputs [][]byte
	for d := 0; d < 56; d += 3 {
		inputs = append(inputs, []byte{byte(d), byte(rng.Intn(256))})
	}
	for i := 0; i < 40; i++ {
		in := make([]byte, rng.Intn(4))
		rng.Read(in)
		inputs = append(inputs, in)
	}
	for _, prog := range []*cfg.Program{recursive, threshold} {
		for _, fb := range allFeedbacks {
			d := newDiffPair(t, prog, fb, 1<<16, vm.DefaultLimits())
			for _, in := range inputs {
				d.check(t, fb.String(), in)
			}
		}
	}
	// Sanity: a deep walk writes one more pathafl segment cell than a
	// shallow one (the overflow flush), so the overflow path ran.
	segCells := func(depth byte) int {
		cells := func(fb instrument.Feedback) int {
			d := newDiffPair(t, recursive, fb, 1<<16, vm.DefaultLimits())
			d.check(t, "depth", []byte{depth, 0})
			return d.m1.CountNonZero()
		}
		return cells(instrument.FeedbackPathAFL) - cells(instrument.FeedbackEdge)
	}
	if shallow, deep := segCells(20), segCells(40); deep != shallow+1 {
		t.Fatalf("pathafl segment cells: depth 20 wrote %d, depth 40 wrote %d; want one more at depth 40", shallow, deep)
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
	pt := instrument.NewPathTracer(prog, m)
	wide := prog.Func("wide")
	if wide == nil || !pt.HashMode(wide.ID) {
		t.Fatal("wide did not fall back to hash mode; widen the test program")
	}
	rng := rand.New(rand.NewSource(3))
	for _, fb := range []instrument.Feedback{instrument.FeedbackPath, instrument.FeedbackPath2, instrument.FeedbackSelective} {
		d := newDiffPair(t, prog, fb, 1<<12, vm.DefaultLimits())
		for i := 0; i < 50; i++ {
			in := make([]byte, rng.Intn(4))
			rng.Read(in)
			d.check(t, "hashmode/"+fb.String(), in)
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
