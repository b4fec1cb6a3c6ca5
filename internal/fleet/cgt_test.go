package fleet_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fuzz"
)

// startFleet is runFleet with caller-chosen fuzzer options, for tests
// that run the fleet on a non-default execution engine.
func startFleet(t *testing.T, dir string, opts fleet.Options, fopts fuzz.Options) *fleet.Result {
	t.Helper()
	s := fleet.New(dir, opts)
	if err := s.Start(compileT(t), fopts, testMeta(), testSeeds); err != nil {
		t.Fatalf("fleet start: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return res
}

// TestCGTFleetChaosByteIdentity stacks every determinism layer at once:
// a 1-worker fleet on the self-patching CGT engine, with an injected
// worker panic forcing a checkpoint restore (and hence a patch replan
// from the restored virgin map), must merge to a report byte-identical
// to a plain default-engine fuzzer run with no fleet and no chaos.
func TestCGTFleetChaosByteIdentity(t *testing.T) {
	fopts := testOpts()
	fopts.Engine = fuzz.EngineAuto
	f, err := fuzz.New(compileT(t), fopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range testSeeds {
		f.AddSeed(s)
	}
	f.Fuzz(testBudget)
	rep := f.Report()
	if len(rep.Bugs) == 0 {
		t.Fatalf("bytecode baseline found no bugs in %d execs", rep.Stats.Execs)
	}
	want := canonical(t, rep)

	cgtOpts := testOpts()
	cgtOpts.Engine = fuzz.EngineCGT
	opts := fleetOpts(1)
	opts.Watchdog = 250 * time.Millisecond
	// Generation-keyed: the panic fires once on the first attempt and
	// never on the replay, so the restarted worker re-runs the lost
	// generation clean from its checkpoint.
	opts.Chaos = func(worker, gen int, execs int64) fleet.ChaosAction {
		if gen == 0 && execs >= 3000 {
			return fleet.ChaosPanic
		}
		return fleet.ChaosNone
	}
	res := startFleet(t, t.TempDir(), opts, cgtOpts)
	if res.Interrupted {
		t.Fatal("cgt chaos fleet interrupted")
	}
	if res.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1 (the injected panic)", res.Restarts)
	}
	var sawPanic bool
	for _, p := range res.Quarantined {
		if strings.Contains(p.Msg, "injected worker panic") {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Fatalf("injected panic not quarantined: %+v", res.Quarantined)
	}
	if got := canonical(t, res.Merged); !bytes.Equal(got, want) {
		t.Fatalf("cgt chaos fleet differs from clean bytecode fuzzer (%d vs %d canonical bytes)", len(got), len(want))
	}
}
