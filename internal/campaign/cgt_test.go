package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/journal"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// cgtFeedbacks are the feedback mechanisms the CGT engine runs: all of
// them.
var cgtFeedbacks = []instrument.Feedback{
	instrument.FeedbackEdge,
	instrument.FeedbackPath,
	instrument.FeedbackPathAFL,
	instrument.FeedbackPath2,
	instrument.FeedbackSelective,
}

// tightLimits makes executions time out, overflow, and exhaust the heap
// often enough that timeouts still find novelty.
var tightLimits = vm.Limits{MaxSteps: 400, MaxDepth: 8, MaxHeapCells: 512, MaxAlloc: 128, MaxCmpObs: 16}

// runEngineCampaign runs one campaign and returns its canonical report
// bytes — the byte-level identity currency of the differential suite.
// A non-nil jw receives the campaign's journal events.
func runEngineCampaign(t *testing.T, sub *subjects.Subject, fb instrument.Feedback, engine fuzz.Engine, budget int64, lim vm.Limits, inj func(int64, []byte) bool, jw *journal.Writer) []byte {
	t.Helper()
	prog, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fuzz.New(prog, fuzz.Options{
		Feedback:        fb,
		Seed:            11,
		MapSize:         1 << 12,
		Entry:           "main",
		Limits:          lim,
		KeepCrashInputs: true,
		Engine:          engine,
		FaultInjector:   inj,
		Journal:         jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sub.Seeds {
		f.AddSeed(s)
	}
	f.Fuzz(budget)
	data, err := CanonicalReport(f.Report())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCGTReportByteIdentityAllSubjects is the engine-level contract at
// full breadth: on every benchmark subject, under every feedback, a CGT
// campaign's canonical report bytes are identical to the default-engine
// campaign with the same seed and budget.
func TestCGTReportByteIdentityAllSubjects(t *testing.T) {
	const budget = 1500
	for _, sub := range subjects.All() {
		sub := sub
		t.Run(sub.Name, func(t *testing.T) {
			t.Parallel()
			for _, fb := range cgtFeedbacks {
				want := runEngineCampaign(t, sub, fb, fuzz.EngineAuto, budget, vm.DefaultLimits(), nil, nil)
				got := runEngineCampaign(t, sub, fb, fuzz.EngineCGT, budget, vm.DefaultLimits(), nil, nil)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%v: cgt report differs from bytecode (%d vs %d canonical bytes)",
						sub.Name, fb, len(got), len(want))
				}
			}
		})
	}
}

// TestCGTReportByteIdentityFaultsAndLimits drives the quarantine and
// resource-exhaustion paths: a periodic pre-execution fault injector, a
// mid-run injected panic, and tight step/heap limits — each must leave
// the CGT report byte-identical to the bytecode one.
func TestCGTReportByteIdentityFaultsAndLimits(t *testing.T) {
	const budget = 1000
	inj := func(execs int64, data []byte) bool { return execs > 0 && execs%401 == 0 }
	injected := vm.DefaultLimits()
	injected.InjectPanicAtStep = 300
	variants := []struct {
		name string
		lim  vm.Limits
		inj  func(int64, []byte) bool
	}{
		{"fault-injector", vm.DefaultLimits(), inj},
		{"mid-run-panic", injected, nil},
		{"tight-limits", tightLimits, nil},
	}
	for _, name := range []string{"cflow", "flvmeta", "jq"} {
		sub := subjects.Get(name)
		if sub == nil {
			t.Fatalf("unknown subject %s", name)
		}
		for _, v := range variants {
			for _, fb := range cgtFeedbacks {
				want := runEngineCampaign(t, sub, fb, fuzz.EngineAuto, budget, v.lim, v.inj, nil)
				got := runEngineCampaign(t, sub, fb, fuzz.EngineCGT, budget, v.lim, v.inj, nil)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%s/%v: cgt report differs from bytecode", name, v.name, fb)
				}
			}
		}
	}
}

// TestCGTResumeDeterminism runs the campaign durability contract on the
// CGT engine: interrupt, checkpoint, resume — the resumed report must
// be byte-identical to an uninterrupted CGT campaign AND to the
// default-engine baseline (the patch plan is rebuilt from the restored
// virgin map, never checkpointed).
func TestCGTResumeDeterminism(t *testing.T) {
	wantBytecode := baseline(t, testOpts())

	opts := testOpts()
	opts.Engine = fuzz.EngineCGT
	want := baseline(t, opts)
	if !bytes.Equal(want, wantBytecode) {
		t.Fatalf("uninterrupted cgt baseline differs from bytecode baseline (%d vs %d bytes)", len(want), len(wantBytecode))
	}

	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, opts)
	got, warns := resumeToEnd(t, OSFS{}, dir, opts)
	if len(warns) != 0 {
		t.Fatalf("unexpected load warnings: %v", warns)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed cgt campaign differs from uninterrupted (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCGTMetaEngineRoundTrip guards the provenance path: an -engine cgt
// campaign records a meta string that parses back to the same engine.
func TestCGTMetaEngineRoundTrip(t *testing.T) {
	for _, e := range []fuzz.Engine{fuzz.EngineAuto, fuzz.EngineCGT} {
		back, err := fuzz.ParseEngine(e.String())
		if err != nil || back != e {
			t.Errorf("engine %v round-trip: got %v, %v", e, back, err)
		}
	}
	if fmt.Sprint(fuzz.EngineCGT) != "cgt" {
		t.Errorf("EngineCGT prints %q", fmt.Sprint(fuzz.EngineCGT))
	}
}

// engineJournal runs one tight-limits campaign with a journal attached
// and returns its events with what may differ between engines removed:
// replan events (CGT only), the sequence numbers they shift, and the
// engine named on the start event.
func engineJournal(t *testing.T, sub *subjects.Subject, fb instrument.Feedback, engine fuzz.Engine, budget int64) []journal.Event {
	t.Helper()
	dir := t.TempDir()
	jw, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runEngineCampaign(t, sub, fb, engine, budget, tightLimits, nil, jw)
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	events, diag, err := journal.ReadDir(dir)
	if err != nil || !diag.OK() {
		t.Fatalf("journal: %v %+v", err, diag)
	}
	var out []journal.Event
	for _, ev := range events {
		if ev.Kind == journal.KindReplan {
			continue
		}
		ev.Seq = 0
		if ev.Kind == journal.KindStart {
			ev.Engine = ""
		}
		out = append(out, ev)
	}
	return out
}

// TestCGTJournalParity extends the identity contract from reports to
// the event journal: a CGT campaign emits the default engine's events —
// timeouts that found novelty included — apart from its replans.
func TestCGTJournalParity(t *testing.T) {
	const budget = 3000
	sub := subjects.Get("jq")
	timeouts := 0
	for _, fb := range cgtFeedbacks {
		want := engineJournal(t, sub, fb, fuzz.EngineAuto, budget)
		got := engineJournal(t, sub, fb, fuzz.EngineCGT, budget)
		for _, ev := range want {
			if ev.Kind == journal.KindTimeout {
				timeouts++
			}
		}
		if reflect.DeepEqual(got, want) {
			continue
		}
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				var g any = "<none>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("%v: event %d differs (%d cgt vs %d bytecode events)\n cgt:      %+v\n bytecode: %+v", fb, i, len(got), len(want), g, want[i])
			}
		}
		t.Fatalf("%v: cgt emits %d extra events, first %+v", fb, len(got)-len(want), got[len(want)])
	}
	if timeouts == 0 {
		t.Fatal("no timeout events at all: the limits no longer exercise the timeout path")
	}
}
