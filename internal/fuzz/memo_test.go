package fuzz

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// stepLimitInputs holds, per subject, inputs that run to the step
// limit. gdk's is a 256x255 24bpp image: load_pixels copies 195,840
// cells, far more steps than vm.DefaultLimits allows. No gdk seed or
// witness times out, and a short run's few mutants need not either.
var stepLimitInputs = map[string][][]byte{
	"gdk": {{'B', 'M', 0, 1, 255, 24, 0, 0}},
}

// memoInputs is a subject's seeds, its bug witnesses, n inputs derived
// from them (random bytes of random length and havoc mutants), and its
// step-limit inputs.
func memoInputs(sub *subjects.Subject, n int) [][]byte {
	var ins [][]byte
	for _, s := range sub.Seeds {
		ins = append(ins, append([]byte(nil), s...))
	}
	for _, b := range sub.Bugs {
		if b.Witness != nil {
			ins = append(ins, append([]byte(nil), b.Witness...))
		}
	}
	base := append([][]byte(nil), ins...)
	r := newRNG(int64(len(sub.Name)))
	mut := &mutator{rng: r, maxLen: maxInputLen, rich: true}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			in := make([]byte, r.Intn(64))
			for j := range in {
				in[j] = byte(r.Intn(256))
			}
			ins = append(ins, in)
		} else {
			ins = append(ins, append([]byte(nil), mut.havoc(base[r.Intn(len(base))])...))
		}
	}
	return append(ins, stepLimitInputs[sub.Name]...)
}

// sameOutcome reports the first difference between two fuzzers'
// judged state: stats, crash and bug records, faults, journal event
// count, and both virgin maps.
func sameOutcome(a, b *Fuzzer) error {
	switch {
	case a.stats != b.stats:
		return fmt.Errorf("stats differ:\n a %+v\n b %+v", a.stats, b.stats)
	case !reflect.DeepEqual(a.crashes, b.crashes):
		return fmt.Errorf("crash records differ")
	case !reflect.DeepEqual(a.bugs, b.bugs):
		return fmt.Errorf("bug records differ")
	case !reflect.DeepEqual(a.faults, b.faults):
		return fmt.Errorf("fault records differ")
	case a.events != b.events:
		return fmt.Errorf("journal events %d vs %d", a.events, b.events)
	case !reflect.DeepEqual(a.virgin.Cells(), b.virgin.Cells()):
		return fmt.Errorf("virgin maps differ")
	case !reflect.DeepEqual(a.crashVirgin.Cells(), b.crashVirgin.Cells()):
		return fmt.Errorf("crash-virgin maps differ")
	}
	return nil
}

// TestMemoAnswersRepeatsExactly is the memo's equivalence proof on
// every subject: fuzzer A runs each input twice, the second run a memo
// hit; fuzzer B runs it, forgets it, and runs the target again. The
// outcomes and everything they are judged into must be equal after
// every step. gdk's step-limit input repeats a timeout; bug witnesses
// repeat crashes. On CGT the plan is recomputed every 64 inputs, so
// repeats skip elided fast runs as well as retraces.
func TestMemoAnswersRepeatsExactly(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 40
	}
	for _, name := range subjects.Names() {
		sub := subjects.Get(name)
		prog := sub.MustProgram()
		ins := memoInputs(sub, n)
		for _, cfg := range []struct {
			fb     instrument.Feedback
			engine Engine
		}{{instrument.FeedbackPath, EngineAuto}, {instrument.FeedbackEdge, EngineCGT}} {
			t.Run(fmt.Sprintf("%s/%v/%v", name, cfg.fb, cfg.engine), func(t *testing.T) {
				opts := Options{Feedback: cfg.fb, Engine: cfg.engine, Seed: 1, MapSize: 1 << 14, KeepCrashInputs: true}
				a, err := New(prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := New(prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				var timeouts, crashes int
				for i, in := range ins {
					if i%64 == 0 {
						a.replanCGT()
						b.replanCGT()
					}
					oa, ob := a.execute(in), b.execute(in)
					if err := sameOutcome(a, b); err != nil {
						t.Fatalf("input %d, first run: %v", i, err)
					}
					hits := a.memo.hits
					b.memo.reset()
					ra, rb := a.execute(in), b.execute(in)
					if a.memo.hits != hits+1 {
						t.Fatalf("input %d: the repeat was not a memo hit", i)
					}
					if b.memo.hits != 0 {
						t.Fatalf("input %d: a cleared memo answered", i)
					}
					if err := sameOutcome(a, b); err != nil {
						t.Fatalf("input %d, repeat: %v", i, err)
					}
					if ra.res.Status != rb.res.Status || ra.res.Steps != rb.res.Steps ||
						!reflect.DeepEqual(ra.res.Crash, rb.res.Crash) || ra.novelty != rb.novelty || ra.cov != nil || rb.cov != nil {
						t.Fatalf("input %d: repeat outcome %+v, rerun %+v", i, ra, rb)
					}
					if ra.res.Status != oa.res.Status || ra.res.Steps != oa.res.Steps || ob.res.Steps != rb.res.Steps {
						t.Fatalf("input %d: repeat %v/%d steps, first run %v/%d", i, ra.res.Status, ra.res.Steps, oa.res.Status, oa.res.Steps)
					}
					switch ra.res.Status {
					case vm.StatusTimeout:
						timeouts++
					case vm.StatusCrash:
						crashes++
					}
				}
				if name == "gdk" && timeouts == 0 {
					t.Error("no gdk input timed out")
				}
				t.Logf("%d inputs, %d timeouts, %d crashes", len(ins), timeouts, crashes)
			})
		}
	}
}

// TestMemoKeepsFaultsRecurring: the fault injector is consulted before
// the memo, so a fault scheduled on a repeated input's exec index
// fires, and a run that panicked is never remembered, so an input
// reaching vm.Limits.InjectPanicAtStep faults every time.
func TestMemoKeepsFaultsRecurring(t *testing.T) {
	prog := compileT(t, fig1)
	in := []byte("hello")

	opts := Options{Feedback: instrument.FeedbackPath, Seed: 1, MapSize: 1 << 12}
	opts.FaultInjector = func(execs int64, _ []byte) bool { return execs == 1 }
	f, err := New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.execute(in)
	}
	if f.stats.InternalFaults != 1 || len(f.faults) != 1 || f.faults[0].FoundAt != 2 {
		t.Fatalf("injected fault on the repeat at exec index 1 not recorded: %d faults, records %+v", f.stats.InternalFaults, f.faults)
	}
	if f.memo.hits != 1 {
		t.Fatalf("memo hits = %d, want 1 (the third run)", f.memo.hits)
	}

	opts = Options{Feedback: instrument.FeedbackPath, Seed: 1, MapSize: 1 << 12, Limits: vm.DefaultLimits()}
	opts.Limits.InjectPanicAtStep = 5
	f, err = New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.execute(in)
	}
	if f.stats.InternalFaults != 3 || len(f.faults) != 1 || f.faults[0].Count != 3 {
		t.Fatalf("mid-run panic did not recur on repeats: %d faults, records %+v", f.stats.InternalFaults, f.faults)
	}
	if f.memo.hits != 0 {
		t.Fatalf("memo answered %d runs that panicked", f.memo.hits)
	}
}

// TestMemoScopedToEntry: every AddSeed and fuzzOne starts with an empty
// memo, so no answer crosses a boundary at which a campaign is
// checkpointed, synced or replanned.
func TestMemoScopedToEntry(t *testing.T) {
	f, err := New(compileT(t, fig1), Options{Feedback: instrument.FeedbackPath, Seed: 1, MapSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte("hello"))
	old := []byte("old input")
	f.execute(old)
	f.fuzzOne(f.queue[0], f.Execs()) // no budget left: runs nothing
	if f.memo.n != 0 {
		t.Errorf("fuzzOne started with %d remembered inputs", f.memo.n)
	}
	f.execute(old)
	f.AddSeed([]byte("abcd"))
	if f.memo.lookup(f.memo.hash(old), old) != nil {
		t.Error("AddSeed kept an input remembered before it")
	}
}

// TestMemoHitAllocatesNothing: answering a repeat allocates nothing,
// and storing an outcome reuses the ring's buffers.
func TestMemoHitAllocatesNothing(t *testing.T) {
	f, err := New(compileT(t, fig1), Options{Feedback: instrument.FeedbackPath, Seed: 1, MapSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("hello")
	f.execute(in)
	if n := testing.AllocsPerRun(100, func() { f.execute(in) }); n != 0 {
		t.Errorf("memo hit allocates %.1f times", n)
	}
	res := vm.Result{Status: vm.StatusOK, Steps: 7}
	var buf [maxInputLen]byte
	k := 0
	if n := testing.AllocsPerRun(200, func() {
		k++
		buf[0], buf[1] = byte(k), byte(k>>8)
		f.memo.store(f.memo.hash(buf[:]), buf[:], res)
	}); n != 0 {
		t.Errorf("storing an outcome allocates %.1f times", n)
	}
}

// TestRepeatExecsCounted: gdk's calibration repeats cmplog candidates,
// and Counters shows how many. The count is display-only state that is
// never checkpointed, so a campaign restored at a boundary counts, from
// that boundary on, exactly what the uninterrupted campaign does.
func TestRepeatExecsCounted(t *testing.T) {
	gdk := subjects.Get("gdk")
	f, err := New(gdk.MustProgram(), Options{Feedback: instrument.FeedbackPath, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range gdk.Seeds {
		f.AddSeed(s)
	}
	if c := f.Counters(); c.RepeatExecs == 0 {
		t.Errorf("gdk calibration ran %d execs and repeated none", c.Execs)
	}

	sub := subjects.Get("flvmeta")
	prog := sub.MustProgram()
	opts := Options{Feedback: instrument.FeedbackPath, Seed: 5}
	const budget = 30000
	f, err = New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sub.Seeds {
		f.AddSeed(s)
	}
	var snap *Snapshot
	var atSnap int64
	f.SetCheckpointHook(func(f *Fuzzer) bool {
		if snap == nil && f.Execs() >= budget/3 {
			snap, atSnap = f.Snapshot(), f.Counters().RepeatExecs
		}
		return true
	})
	f.Fuzz(budget)
	straight := f.Counters().RepeatExecs - atSnap
	if snap == nil || straight == 0 {
		t.Fatalf("no repeats after the boundary (snapshot taken: %v)", snap != nil)
	}
	g, err := Restore(prog, opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	g.Fuzz(budget)
	if got := g.Counters().RepeatExecs; got != straight {
		t.Errorf("restored campaign repeated %d execs after the boundary, uninterrupted %d", got, straight)
	}
}
