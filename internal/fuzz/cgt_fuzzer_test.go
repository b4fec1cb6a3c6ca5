package fuzz

import (
	"reflect"
	"testing"

	"repro/internal/instrument"
	"repro/internal/vm"
)

// cgtSrc mirrors the campaign durability test program — a shallow
// magic-byte abort plus a deeper out-of-bounds write — with an
// input-length loop in front: loop-edge hit counts spread across all
// hit-count buckets as mutation varies input lengths, which is what
// lets the virgin map fully consume cells and probe elision engage.
const cgtSrc = `
func main(input) {
    var i = 0;
    var acc = 0;
    while (i < len(input)) {
        acc = acc + input[i];
        i = i + 1;
    }
    if (len(input) < 4) { return acc; }
    if (input[0] == 'A' && input[1] == 'B') {
        abort();
    }
    var arr = alloc(16);
    if (input[2] == 'C') {
        arr[input[3] - 100] = 1;
    }
    return 0;
}`

func cgtOpts(engine Engine) Options {
	return Options{
		Feedback:        instrument.FeedbackEdge,
		Seed:            7,
		MapSize:         1 << 12,
		Entry:           "main",
		Limits:          vm.DefaultLimits(),
		KeepCrashInputs: true,
		Engine:          engine,
	}
}

var cgtSeeds = [][]byte{[]byte("xxxx"), []byte("good")}

func runCampaign(t *testing.T, opts Options, budget int64) (*Fuzzer, *Report) {
	t.Helper()
	f, err := New(compileT(t, cgtSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cgtSeeds {
		f.AddSeed(s)
	}
	f.Fuzz(budget)
	return f, f.Report()
}

func TestCGTEngineSelection(t *testing.T) {
	f, err := New(compileT(t, cgtSrc), cgtOpts(EngineCGT))
	if err != nil {
		t.Fatal(err)
	}
	if f.EngineName() != "cgt" {
		t.Fatalf("EngineName = %q, want cgt", f.EngineName())
	}
	if _, ok := f.CGTInfo(); !ok {
		t.Fatal("CGTInfo not available on the cgt engine")
	}
	fb, err := New(compileT(t, cgtSrc), cgtOpts(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if fb.EngineName() != "bytecode" {
		t.Fatalf("EngineName = %q, want bytecode", fb.EngineName())
	}
	if _, ok := fb.CGTInfo(); ok {
		t.Fatal("CGTInfo claims to exist on the bytecode engine")
	}
}

// TestCGTReportMatchesBytecode is the engine's in-package contract: a
// CGT campaign's final report — stats, queue, crashes, history, every
// field — is deeply identical to the same campaign on EngineAuto,
// and the engine actually elides probes and avoids retraces while
// getting there.
func TestCGTReportMatchesBytecode(t *testing.T) {
	const budget = 20000
	_, want := runCampaign(t, cgtOpts(EngineAuto), budget)
	if len(want.Bugs) == 0 {
		t.Fatalf("bytecode baseline found no bugs in %d execs", want.Stats.Execs)
	}
	f, got := runCampaign(t, cgtOpts(EngineCGT), budget)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cgt report differs from bytecode:\n got: execs=%d queue=%d bugs=%v\nwant: execs=%d queue=%d bugs=%v",
			got.Stats.Execs, got.QueueLen, got.BugKeys(), want.Stats.Execs, want.QueueLen, want.BugKeys())
	}
	info, ok := f.CGTInfo()
	if !ok {
		t.Fatal("no CGTInfo")
	}
	if info.FastExecs == 0 || info.Replans == 0 {
		t.Fatalf("engine never engaged: %+v", info)
	}
	if info.Retraces >= info.FastExecs {
		t.Fatalf("every execution retraced — elision is vacuous: %+v", info)
	}
	if info.ElidedSites == 0 || info.ConsumedCells == 0 {
		t.Fatalf("no probes elided after %d execs: %+v", budget, info)
	}
	t.Logf("cgt: %+v (retrace rate %.2f%%)", info, 100*float64(info.Retraces)/float64(info.FastExecs))
}

// TestCGTFaultInjectionParity pins quarantine behaviour: with both the
// pre-execution fault injector and a mid-run injected panic active, the
// CGT campaign must quarantine exactly the executions the bytecode
// campaign does and still produce an identical report.
func TestCGTFaultInjectionParity(t *testing.T) {
	mk := func(engine Engine) Options {
		opts := cgtOpts(engine)
		opts.FaultInjector = func(execs int64, data []byte) bool { return execs%997 == 0 && execs > 0 }
		// Mid-run injected panics: any execution reaching step 50 dies
		// inside the machine and must be quarantined identically.
		opts.Limits.InjectPanicAtStep = 50
		return opts
	}
	const budget = 12000
	_, want := runCampaign(t, mk(EngineAuto), budget)
	if want.Stats.InternalFaults == 0 {
		t.Fatalf("fault injector never fired in %d execs", want.Stats.Execs)
	}
	_, got := runCampaign(t, mk(EngineCGT), budget)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cgt faulted report differs from bytecode: faults %d vs %d, execs %d vs %d",
			got.Stats.InternalFaults, want.Stats.InternalFaults, got.Stats.Execs, want.Stats.Execs)
	}
}

// TestCGTTightLimitsParity forces the timeout path (a step budget far
// below the program's honest cost) — timeouts without novelty are the
// one case the CGT engine must classify without retracing.
func TestCGTTightLimitsParity(t *testing.T) {
	mk := func(engine Engine) Options {
		opts := cgtOpts(engine)
		opts.Limits = vm.Limits{MaxSteps: 40, MaxDepth: 16, MaxHeapCells: 1 << 20, MaxAlloc: 1 << 16, MaxCmpObs: 32}
		return opts
	}
	const budget = 8000
	_, want := runCampaign(t, mk(EngineAuto), budget)
	if want.Stats.Timeouts == 0 {
		t.Fatalf("tight limits produced no timeouts in %d execs", want.Stats.Execs)
	}
	f, got := runCampaign(t, mk(EngineCGT), budget)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cgt tight-limit report differs: timeouts %d vs %d",
			got.Stats.Timeouts, want.Stats.Timeouts)
	}
	if info, _ := f.CGTInfo(); info.Retraces >= info.FastExecs {
		t.Fatalf("timeout-heavy campaign retraced everything: %+v", info)
	}
}

// TestCGTSnapshotResumeByteIdentity: a CGT campaign interrupted
// mid-cycle and restored from its snapshot (which deliberately carries
// no patch-plan state — the plan is replanned from the restored virgin
// map) finishes with a report identical to the uninterrupted campaign.
func TestCGTSnapshotResumeByteIdentity(t *testing.T) {
	const budget = 20000
	_, want := runCampaign(t, cgtOpts(EngineCGT), budget)

	f, err := New(compileT(t, cgtSrc), cgtOpts(EngineCGT))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cgtSeeds {
		f.AddSeed(s)
	}
	// Interrupt via the checkpoint hook inside a single Fuzz call, like
	// a real campaign: the sampling cadence stays comparable to the
	// uninterrupted baseline.
	var snap *Snapshot
	f.SetCheckpointHook(func(f *Fuzzer) bool {
		if f.Execs() >= budget/3 {
			snap = f.Snapshot()
			return false
		}
		return true
	})
	f.Fuzz(budget)
	if snap == nil {
		t.Fatal("checkpoint hook never fired")
	}
	f2, err := Restore(compileT(t, cgtSrc), cgtOpts(EngineCGT), snap)
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := f2.CGTInfo(); info.Replans == 0 {
		t.Fatal("restore did not replan the patch plan from the restored virgin map")
	}
	f2.Fuzz(budget)
	got := f2.Report()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed cgt report differs from uninterrupted:\n got: execs=%d queue=%d bugs=%v\nwant: execs=%d queue=%d bugs=%v",
			got.Stats.Execs, got.QueueLen, got.BugKeys(), want.Stats.Execs, want.QueueLen, want.BugKeys())
	}
}
