package bytecode_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// cgtPair runs the same inputs through the pristine fully-instrumented
// machine and a patched fast machine whose elision plan is periodically
// recomputed from the canonical virgin map, and asserts the
// coverage-preserving contract: identical results, identical novelty
// verdicts, and identical virgin-map evolution, with fast-map writes to
// consumed cells provably gone.
type cgtPair struct {
	patch      *bytecode.Patchable
	consumed   *coverage.Bitset
	machFull   *bytecode.Machine
	machFast   *bytecode.Machine
	mFull      *coverage.Map
	mFast      *coverage.Map
	virgin     *coverage.Virgin // merged from the full machine (canonical)
	virginFast *coverage.Virgin // merged from the fast machine (must track it)
	mapSize    int
}

func newCGTPair(t *testing.T, prog *cfg.Program, fb instrument.Feedback, mapSize int, lim vm.Limits) *cgtPair {
	t.Helper()
	cp, ok := instrument.CompiledFor(fb, prog, instrument.Config{})
	if !ok {
		t.Fatalf("feedback %v has no bytecode lowering", fb)
	}
	p := &cgtPair{
		patch:      bytecode.NewPatchable(cp, mapSize),
		consumed:   coverage.NewBitset(mapSize),
		mFull:      coverage.NewMap(mapSize),
		mFast:      coverage.NewMap(mapSize),
		virgin:     coverage.NewVirgin(mapSize),
		virginFast: coverage.NewVirgin(mapSize),
		mapSize:    mapSize,
	}
	p.machFull = bytecode.NewMachine(cp, p.mFull, lim)
	p.machFast = bytecode.NewMachine(p.patch.Program(), p.mFast, lim)
	p.machFast.SetElide(p.consumed)
	return p
}

// replan recomputes the elision plan from the canonical virgin map,
// exactly as the fuzzer does at culling boundaries.
func (p *cgtPair) replan(t *testing.T) {
	t.Helper()
	p.virgin.FullyConsumedInto(p.consumed)
	n := p.patch.Replan(p.consumed)
	if n != p.patch.Elided() {
		t.Fatalf("Replan returned %d, Elided says %d", n, p.patch.Elided())
	}
	if err := p.patch.Verify(); err != nil {
		t.Fatalf("patched program failed verification: %v", err)
	}
}

func (p *cgtPair) check(t *testing.T, label string, input []byte) {
	t.Helper()
	p.mFull.Reset()
	r1 := p.machFull.Run("main", input)
	p.mFull.ClassifySparse()
	nov1 := p.virgin.MergeSparse(p.mFull)

	p.mFast.Reset()
	r2 := p.machFast.Run("main", input)
	p.mFast.ClassifySparse()
	nov2 := p.virginFast.MergeSparse(p.mFast)

	if r1.Status != r2.Status || r1.Ret != r2.Ret || r1.Steps != r2.Steps {
		t.Fatalf("%s input %q: result diverged\nfull: %+v\nfast: %+v", label, input, r1, r2)
	}
	if nov1 != nov2 {
		t.Fatalf("%s input %q: novelty diverged: full=%v fast=%v", label, input, nov1, nov2)
	}
	full, fast := p.mFull.Bytes(), p.mFast.Bytes()
	for i := 0; i < p.mapSize; i++ {
		if p.consumed.Has(uint32(i)) {
			if fast[i] != 0 {
				t.Fatalf("%s input %q: fast map wrote consumed cell %d = %d", label, input, i, fast[i])
			}
		} else if full[i] != fast[i] {
			t.Fatalf("%s input %q: live cell %d differs: full=%d fast=%d", label, input, i, full[i], fast[i])
		}
	}
	if !reflect.DeepEqual(p.virgin.Cells(), p.virginFast.Cells()) {
		t.Fatalf("%s input %q: virgin maps diverged after merge", label, input)
	}
}

// TestPatchableCoveragePreservation is the CGT engine's core contract
// at the machine level: under every supported feedback, a machine
// running the patched program (with record-side elision for dynamic
// probes) yields the same results, the same novelty verdicts, and the
// same virgin-map evolution as the fully instrumented machine, while
// never writing a consumed cell. The plan is replanned from the virgin
// map every few inputs so elision actually engages mid-corpus. Beside
// four subjects it runs recursiveSrc, whose deep walks reach the
// pathafl segment-overflow flush.
func TestPatchableCoveragePreservation(t *testing.T) {
	feedbacks := []instrument.Feedback{
		instrument.FeedbackEdge,
		instrument.FeedbackPath,
		instrument.FeedbackPathAFL,
	}
	preserve := func(t *testing.T, name string, prog *cfg.Program, inputs [][]byte) {
		for _, fb := range feedbacks {
			// A small map makes cells consume quickly, so elision
			// engages within the test corpus.
			p := newCGTPair(t, prog, fb, 1<<10, vm.DefaultLimits())
			for i, in := range inputs {
				if i%8 == 0 {
					p.replan(t)
				}
				p.check(t, fb.String(), in)
			}
			if p.patch.NumSites() == 0 && fb == instrument.FeedbackEdge {
				t.Fatalf("%s/%v: no patchable sites found", name, fb)
			}
		}
	}
	for _, name := range []string{"cflow", "jq", "flvmeta", "mujs"} {
		sub := subjects.Get(name)
		if sub == nil {
			t.Fatalf("unknown subject %s", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1234))
			preserve(t, name, sub.MustProgram(), subjectInputs(sub, rng, 60))
		})
	}
	t.Run("recursive", func(t *testing.T) {
		prog, err := cfg.Compile(recursiveSrc)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1234))
		var inputs [][]byte
		for i := 0; i < 60; i++ {
			inputs = append(inputs, []byte{byte(rng.Intn(56)), byte(rng.Intn(256))})
		}
		preserve(t, "recursive", prog, inputs)
	})
}

// TestPatchableElisionEngages pins that the mechanism is not vacuous:
// after hammering one subject's seeds, replanning from the virgin map
// actually elides a nontrivial number of static probe sites.
func TestPatchableElisionEngages(t *testing.T) {
	sub := subjects.Get("cflow")
	p := newCGTPair(t, sub.MustProgram(), instrument.FeedbackEdge, 1<<10, vm.DefaultLimits())
	rng := rand.New(rand.NewSource(99))
	inputs := subjectInputs(sub, rng, 120)
	for _, in := range inputs {
		p.check(t, "warm", in)
	}
	p.replan(t)
	if p.patch.Elided() == 0 {
		t.Fatalf("no sites elided after %d inputs (%d sites, %d consumed cells)",
			len(inputs), p.patch.NumSites(), p.consumed.Count())
	}
	t.Logf("elided %d/%d sites, %d consumed cells", p.patch.Elided(), p.patch.NumSites(), p.consumed.Count())
}

// TestPatchableReplanDeterminism pins the patch plan as a pure function
// of the consumed mask: two Patchables over the same program, replanned
// from the same mask reconstructed via the virgin cell snapshot (the
// checkpoint/fleet-sync path), elide identical site sets and their
// machines produce byte-identical runs.
func TestPatchableReplanDeterminism(t *testing.T) {
	sub := subjects.Get("jq")
	const mapSize = 1 << 12
	lim := vm.DefaultLimits()

	a := newCGTPair(t, sub.MustProgram(), instrument.FeedbackEdge, mapSize, lim)
	rng := rand.New(rand.NewSource(5))
	inputs := subjectInputs(sub, rng, 40)
	for _, in := range inputs {
		a.check(t, "warm", in)
	}
	a.replan(t)

	// Rebuild the virgin from its serialized cells — the checkpoint
	// round trip — and replan an independent Patchable from it.
	b := newCGTPair(t, sub.MustProgram(), instrument.FeedbackEdge, mapSize, lim)
	if err := b.virgin.SetCells(a.virgin.Cells()); err != nil {
		t.Fatal(err)
	}
	if err := b.virginFast.SetCells(a.virgin.Cells()); err != nil {
		t.Fatal(err)
	}
	b.replan(t)
	if a.patch.Elided() != b.patch.Elided() {
		t.Fatalf("replan from restored virgin elided %d sites, original %d", b.patch.Elided(), a.patch.Elided())
	}
	for i := 0; i < mapSize; i++ {
		if a.consumed.Has(uint32(i)) != b.consumed.Has(uint32(i)) {
			t.Fatalf("consumed mask differs at cell %d", i)
		}
	}
	for _, in := range inputs {
		a.mFast.Reset()
		r1 := a.machFast.Run("main", in)
		b.mFast.Reset()
		r2 := b.machFast.Run("main", in)
		if r1.Status != r2.Status || r1.Ret != r2.Ret || r1.Steps != r2.Steps {
			t.Fatalf("input %q: restored-plan machine diverged: %+v vs %+v", in, r1, r2)
		}
		for i := range a.mFast.Bytes() {
			if a.mFast.Bytes()[i] != b.mFast.Bytes()[i] {
				t.Fatalf("input %q: maps differ at cell %d", in, i)
			}
		}
	}
}

// TestPatchableFullElision drives the limit case — every map cell
// consumed — and checks the fast machine still produces identical
// results with a completely silent map.
func TestPatchableFullElision(t *testing.T) {
	sub := subjects.Get("flvmeta")
	const mapSize = 1 << 12
	for _, fb := range []instrument.Feedback{instrument.FeedbackEdge, instrument.FeedbackPath, instrument.FeedbackPathAFL} {
		p := newCGTPair(t, sub.MustProgram(), fb, mapSize, vm.DefaultLimits())
		for i := 0; i < mapSize; i++ {
			p.consumed.Set(uint32(i))
		}
		if n := p.patch.Replan(p.consumed); n != p.patch.NumSites() {
			t.Fatalf("%v: full mask elided %d of %d sites", fb, n, p.patch.NumSites())
		}
		if err := p.patch.Verify(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for _, in := range subjectInputs(sub, rng, 20) {
			p.mFull.Reset()
			r1 := p.machFull.Run("main", in)
			p.mFast.Reset()
			r2 := p.machFast.Run("main", in)
			if r1.Status != r2.Status || r1.Ret != r2.Ret || r1.Steps != r2.Steps {
				t.Fatalf("%v input %q: diverged under full elision: %+v vs %+v", fb, in, r1, r2)
			}
			for i, v := range p.mFast.Bytes() {
				if v != 0 {
					t.Fatalf("%v input %q: fully elided machine wrote cell %d", fb, in, i)
				}
			}
		}
		// Un-replanning must restore pristine behaviour byte-for-byte.
		p.consumed.Clear()
		if n := p.patch.Replan(p.consumed); n != 0 {
			t.Fatalf("%v: empty mask left %d sites elided", fb, n)
		}
		rng = rand.New(rand.NewSource(3))
		for _, in := range subjectInputs(sub, rng, 20) {
			p.check(t, fmt.Sprintf("restored/%v", fb), in)
		}
	}
}

// TestPatchableTightLimits pins step/timeout/fault parity of the
// patched opcodes: under brutal limits and fault injection the patched
// machine must fail at exactly the same step as the pristine one.
func TestPatchableTightLimits(t *testing.T) {
	sub := subjects.Get("cflow")
	lims := []vm.Limits{
		{MaxSteps: 100, MaxDepth: 64, MaxHeapCells: 1 << 22, MaxAlloc: 1 << 20, MaxCmpObs: 64},
		{MaxSteps: 333, MaxDepth: 5, MaxHeapCells: 256, MaxAlloc: 64, MaxCmpObs: 8},
		func() vm.Limits {
			l := vm.DefaultLimits()
			l.InjectPanicAtStep = 57
			return l
		}(),
	}
	// Injected faults panic by design (the fuzzer's protected runner
	// recovers them); capture matches the pattern in the engine's own
	// fault-injection differential test.
	capture := func(run func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		run()
		return ""
	}
	for li, lim := range lims {
		p := newCGTPair(t, sub.MustProgram(), instrument.FeedbackEdge, 1<<10, lim)
		// Elide everything so the fast path is maximally different.
		for i := 0; i < 1<<10; i++ {
			p.consumed.Set(uint32(i))
		}
		p.patch.Replan(p.consumed)
		rng := rand.New(rand.NewSource(13))
		for _, in := range subjectInputs(sub, rng, 20) {
			var r1, r2 vm.Result
			p.mFull.Reset()
			msg1 := capture(func() { r1 = p.machFull.Run("main", in) })
			p.mFast.Reset()
			msg2 := capture(func() { r2 = p.machFast.Run("main", in) })
			if msg1 != msg2 {
				t.Fatalf("lim%d input %q: injected fault mismatch: full %q fast %q", li, in, msg1, msg2)
			}
			if msg1 != "" {
				continue
			}
			if r1.Status != r2.Status || r1.Ret != r2.Ret || r1.Steps != r2.Steps {
				t.Fatalf("lim%d input %q: diverged: full=%+v fast=%+v", li, in, r1, r2)
			}
			if !reflect.DeepEqual(r1.Crash, r2.Crash) {
				t.Fatalf("lim%d input %q: crash mismatch\nfull: %+v\nfast: %+v", li, in, r1.Crash, r2.Crash)
			}
		}
	}
}
