package fleet_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cfg"
	"repro/internal/fleet"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// testSrc has a shallow magic-byte abort plus a deeper out-of-bounds
// write — the same program the campaign durability tests fuzz.
const testSrc = `
func main(input) {
    if (len(input) < 4) { return 0; }
    if (input[0] == 'A' && input[1] == 'B') {
        abort();
    }
    var arr = alloc(16);
    if (input[2] == 'C') {
        arr[input[3] - 100] = 1;
    }
    return 0;
}`

const (
	testBudget = 20000 // per-worker execution budget
	testStop   = 9000  // a mid-run stop, between two checkpoints
	testCkpt   = 2500
)

var testSeeds = [][]byte{[]byte("xxxx"), []byte("good")}

func compileT(t testing.TB) *cfg.Program {
	t.Helper()
	p, err := cfg.Compile(testSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func testOpts() fuzz.Options {
	return fuzz.Options{
		Feedback:        instrument.FeedbackPath,
		Seed:            7,
		MapSize:         1 << 12,
		Entry:           "main",
		Limits:          vm.DefaultLimits(),
		KeepCrashInputs: true,
	}
}

func testMeta() campaign.Meta {
	return campaign.Meta{Fuzzer: "path", Seed: 7, Budget: testBudget, MapSize: 1 << 12, Entry: "main"}
}

// fleetOpts is the baseline supervisor configuration for tests: real
// checkpoint cadence, no wall-clock sleeps.
func fleetOpts(workers int) fleet.Options {
	return fleet.Options{
		Workers:   workers,
		CkptEvery: testCkpt,
		Sleep:     func(time.Duration) {},
	}
}

// runFleet starts a fresh fleet in dir and runs it to its end state.
func runFleet(t *testing.T, dir string, opts fleet.Options) *fleet.Result {
	t.Helper()
	s := fleet.New(dir, opts)
	if err := s.Start(compileT(t), testOpts(), testMeta(), testSeeds); err != nil {
		t.Fatalf("fleet start: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return res
}

// canonical returns the report's canonical bytes with the poison
// quarantine stripped — chaos-vs-clean comparisons are over the
// fuzzing outcome, which injected faults must not perturb.
func canonical(t *testing.T, rep *fuzz.Report) []byte {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	cp := *rep
	cp.Poison = nil
	data, err := campaign.CanonicalReport(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestWorkerSeed(t *testing.T) {
	if got := fleet.WorkerSeed(7, 0); got != 7 {
		t.Fatalf("worker 0 seed = %d, want the fleet seed unchanged", got)
	}
	seen := map[int64]int{7: 0}
	for i := 1; i < 16; i++ {
		s := fleet.WorkerSeed(7, i)
		if s < 0 {
			t.Fatalf("worker %d seed negative: %d", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("workers %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
		if again := fleet.WorkerSeed(7, i); again != s {
			t.Fatalf("worker %d seed not deterministic: %d vs %d", i, s, again)
		}
	}
}

// plainCampaign runs the plain single fuzzer that fleet worker i must
// equal: seed WorkerSeed(7, i), the fleet's budget, and corpus
// provenance stamped with worker i.
func plainCampaign(t *testing.T, worker int) *fuzz.Report {
	t.Helper()
	opts := testOpts()
	opts.Seed = fleet.WorkerSeed(opts.Seed, worker)
	opts.JournalWorker = worker
	f, err := fuzz.New(compileT(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range testSeeds {
		f.AddSeed(s)
	}
	f.Fuzz(testBudget)
	return f.Report()
}

// TestSingleWorkerByteIdentity is the fleet's base determinism anchor:
// each worker of a fleet — supervisor, checkpoints and all — ends with
// a report byte-identical to a plain single fuzzer at the worker's
// derived seed and the same budget, and the merged report is those
// campaigns merged, their queues concatenated in worker order.
func TestSingleWorkerByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 2} {
		plain := make([]*fuzz.Report, workers)
		for i := range plain {
			plain[i] = plainCampaign(t, i)
		}
		if len(plain[0].Bugs) == 0 {
			t.Fatalf("baseline found no bugs in %d execs; the test program is too hard", plain[0].Stats.Execs)
		}

		res := runFleet(t, t.TempDir(), fleetOpts(workers))
		if res.Interrupted {
			t.Fatalf("%d-worker fleet reported interrupted", workers)
		}
		if res.Restarts != 0 || len(res.Quarantined) != 0 {
			t.Fatalf("clean %d-worker fleet recorded restarts=%d quarantined=%d", workers, res.Restarts, len(res.Quarantined))
		}
		for i, rep := range plain {
			if got, want := canonical(t, res.Workers[i]), canonical(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("%d-worker fleet: worker %d differs from the plain fuzzer at seed %d (%d vs %d canonical bytes)",
					workers, i, fleet.WorkerSeed(7, i), len(got), len(want))
			}
		}
		merged := fuzz.MergeReports(plain...)
		merged.Queue = nil
		for _, rep := range plain {
			merged.Queue = append(merged.Queue, rep.Queue...)
		}
		merged.QueueLen = len(merged.Queue)
		if got, want := canonical(t, res.Merged), canonical(t, merged); !bytes.Equal(got, want) {
			t.Fatalf("%d-worker fleet's merged report differs from its plain campaigns merged (%d vs %d canonical bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestFleetTelemetryExact: every worker publishes its final counters
// when its runner returns, so the fleet aggregate the recorder ends
// with matches the merged report's exec count and carries the workers'
// coverage, and the closing publish carries the merged report's
// deduplicated unique crash and bug counts.
func TestFleetTelemetryExact(t *testing.T) {
	rec := telemetry.New(telemetry.Config{})
	opts := fleetOpts(2)
	opts.Telemetry = rec
	res := runFleet(t, t.TempDir(), opts)
	if res.Interrupted {
		t.Fatal("fleet reported interrupted")
	}
	s := rec.Latest()
	if s == nil {
		t.Fatal("no fleet aggregate published")
	}
	if s.Execs != res.Merged.Stats.Execs {
		t.Errorf("aggregate execs %d != merged report execs %d", s.Execs, res.Merged.Stats.Execs)
	}
	if s.CoverageCount == 0 || s.MapSize == 0 || s.CoverageCount > s.MapSize {
		t.Errorf("aggregate coverage %d of a %d-cell map, want 0 < coverage <= map", s.CoverageCount, s.MapSize)
	}
	if s.FleetWorkers != 2 || s.FleetActive != 0 {
		t.Errorf("fleet liveness %d/%d at the end, want 0/2", s.FleetActive, s.FleetWorkers)
	}
	if s.UniqueBugs != int64(len(res.Merged.Bugs)) || s.UniqueCrashes != int64(len(res.Merged.Crashes)) {
		t.Errorf("aggregate unique bugs/crashes %d/%d != merged report %d/%d",
			s.UniqueBugs, s.UniqueCrashes, len(res.Merged.Bugs), len(res.Merged.Crashes))
	}
}

// TestFleetChaosDeterminism injects a worker panic and a worker wedge
// and asserts full containment: the fleet restarts both workers from
// their checkpoints, quarantines the poison inputs, and the final
// merged report is byte-identical to an unfaulted run of the same
// fleet — the replayed generations land in exactly the state the lost
// ones would have reached.
func TestFleetChaosDeterminism(t *testing.T) {
	clean := runFleet(t, t.TempDir(), fleetOpts(2))
	if clean.Interrupted {
		t.Fatal("clean fleet interrupted")
	}
	want := canonical(t, clean.Merged)
	if len(clean.Merged.Bugs) == 0 {
		t.Fatal("clean fleet found no bugs; the test program is too hard")
	}

	opts := fleetOpts(2)
	opts.Watchdog = 250 * time.Millisecond
	// Generation-keyed faults: fire once on the first attempt, never on
	// the replay.
	opts.Chaos = func(worker, gen int, execs int64) fleet.ChaosAction {
		switch {
		case worker == 1 && gen == 0 && execs >= 3000:
			return fleet.ChaosPanic
		case worker == 0 && gen == 0 && execs >= 9000:
			return fleet.ChaosWedge
		}
		return fleet.ChaosNone
	}
	res := runFleet(t, t.TempDir(), opts)
	if res.Interrupted {
		t.Fatal("chaos fleet interrupted")
	}
	if got := canonical(t, res.Merged); !bytes.Equal(got, want) {
		t.Fatalf("chaos fleet differs from clean fleet (%d vs %d canonical bytes)", len(got), len(want))
	}
	if res.Restarts < 2 {
		t.Fatalf("restarts = %d, want >= 2 (one panic, one wedge)", res.Restarts)
	}
	if res.Wedges < 1 {
		t.Fatalf("wedges = %d, want >= 1", res.Wedges)
	}
	var sawPanic, sawWedge bool
	for _, p := range res.Quarantined {
		switch {
		case p.Worker == 1 && strings.Contains(p.Msg, "injected worker panic"):
			sawPanic = true
		case p.Worker == 0 && strings.Contains(p.Msg, "watchdog"):
			sawWedge = true
		}
	}
	if !sawPanic || !sawWedge {
		t.Fatalf("quarantine missing expected findings (panic=%v wedge=%v): %+v", sawPanic, sawWedge, res.Quarantined)
	}
	// The merged report carries the quarantine for evaluation output.
	if len(res.Merged.Poison) == 0 {
		t.Fatal("merged report has no poison findings attached")
	}
	if len(res.Retired) != 0 {
		t.Fatalf("chaos fleet retired workers %v; faults should have been absorbed by restarts", res.Retired)
	}
}

// TestFleetRetirementHarvest drives one worker into a crash loop with
// no durable progress between failures: after MaxRestarts consecutive
// failures it is retired, the rest of the fleet completes, and the
// retired worker's last checkpoint is harvested into the merged report
// so its corpus and findings are not lost.
func TestFleetRetirementHarvest(t *testing.T) {
	opts := fleetOpts(2)
	opts.MaxRestarts = 2
	opts.CkptEvery = 1 << 40 // only checkpoint zero: no durable progress, ever
	opts.Chaos = func(worker, gen int, execs int64) fleet.ChaosAction {
		if worker == 1 && execs >= 500 { // every generation: a true crash loop
			return fleet.ChaosPanic
		}
		return fleet.ChaosNone
	}
	res := runFleet(t, t.TempDir(), opts)
	if res.Interrupted {
		t.Fatal("fleet interrupted")
	}
	if len(res.Retired) != 1 || res.Retired[0] != 1 {
		t.Fatalf("retired = %v, want [1]", res.Retired)
	}
	if res.Restarts < opts.MaxRestarts {
		t.Fatalf("restarts = %d, want >= %d", res.Restarts, opts.MaxRestarts)
	}
	if res.Workers[0] == nil || res.Workers[0].Stats.Execs < testBudget {
		t.Fatal("worker 0 did not complete its budget despite worker 1 retiring")
	}
	if res.Workers[1] == nil {
		t.Fatal("retired worker 1 was not harvested")
	}
	// Harvest recovered the checkpointed corpus: the merged queue holds
	// worker 0's full corpus plus worker 1's seeded entries.
	if len(res.Merged.Queue) <= len(res.Workers[0].Queue) {
		t.Fatalf("merged queue (%d entries) does not extend worker 0's (%d): retired corpus lost",
			len(res.Merged.Queue), len(res.Workers[0].Queue))
	}
	var quarantined bool
	for _, p := range res.Quarantined {
		if p.Worker == 1 && strings.Contains(p.Msg, "injected worker panic") {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("crash-loop input not quarantined: %+v", res.Quarantined)
	}
}

// resumeFleet loads the manifest in dir and drives the fleet to
// completion.
func resumeFleet(t *testing.T, dir string, opts fleet.Options) *fleet.Result {
	t.Helper()
	man, err := fleet.LoadManifest(campaign.OSFS{}, dir)
	if err != nil {
		t.Fatalf("load manifest: %v", err)
	}
	s := fleet.New(dir, opts)
	if err := s.Attach(compileT(t), testOpts(), man); err != nil {
		t.Fatalf("attach: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return res
}

// TestFleetResumeDeterminism interrupts a fleet at a fixed exec count,
// resumes it from the manifest plus per-worker checkpoints, and asserts
// the final merged report is byte-identical to the same fleet run
// uninterrupted.
func TestFleetResumeDeterminism(t *testing.T) {
	clean := runFleet(t, t.TempDir(), fleetOpts(2))
	want := canonical(t, clean.Merged)

	dir := t.TempDir()
	opts := fleetOpts(2)
	opts.StopAfter = testStop
	res := runFleet(t, dir, opts)
	if !res.Interrupted {
		t.Fatal("StopAfter did not interrupt the fleet")
	}

	validateCheckpoints(t, dir, 2)

	resumed := resumeFleet(t, dir, fleetOpts(2))
	if resumed.Interrupted {
		t.Fatal("resumed fleet interrupted again")
	}
	if got := canonical(t, resumed.Merged); !bytes.Equal(got, want) {
		t.Fatalf("resumed fleet differs from uninterrupted fleet (%d vs %d canonical bytes)", len(got), len(want))
	}
}

// validateCheckpoints decodes every checkpoint the workers of the fleet
// in dir keep and asserts each satisfies fuzz.Snapshot.Validate, the
// invariants Restore enforces on decoded state.
func validateCheckpoints(t *testing.T, dir string, workers int) {
	t.Helper()
	n := 0
	for w := 0; w < workers; w++ {
		cdir := filepath.Join(fleet.WorkerDir(dir, w), "checkpoints")
		ents, err := os.ReadDir(cdir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			data, err := os.ReadFile(filepath.Join(cdir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			ck, err := campaign.DecodeCheckpoint(data)
			if err != nil {
				t.Fatalf("worker %d %s: %v", w, ent.Name(), err)
			}
			if err := ck.Snap.Validate(); err != nil {
				t.Fatalf("worker %d %s breaks the snapshot invariants: %v", w, ent.Name(), err)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatalf("no worker checkpoints under %s", dir)
	}
}

// TestFleetAttachRefusesCheckpointWithoutRNGState: a fleet whose worker
// checkpoint predates the generator ring in snapshots cannot resume;
// Attach refuses it with fuzz.ErrRNGState instead of letting the worker
// fail every restart and retire.
func TestFleetAttachRefusesCheckpointWithoutRNGState(t *testing.T) {
	dir := t.TempDir()
	opts := fleetOpts(2)
	opts.StopAfter = testStop
	if res := runFleet(t, dir, opts); !res.Interrupted {
		t.Fatal("StopAfter did not interrupt the fleet")
	}
	// Rewrite worker 1's checkpoints as an older build wrote them: a
	// draw count and no generator ring.
	cdir := filepath.Join(fleet.WorkerDir(dir, 1), "checkpoints")
	ents, err := os.ReadDir(cdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		path := filepath.Join(cdir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := campaign.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		ck.Snap.RNGState = nil
		if data, err = ck.Encode(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	man, err := fleet.LoadManifest(campaign.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	err = fleet.New(dir, fleetOpts(2)).Attach(compileT(t), testOpts(), man)
	if !errors.Is(err, fuzz.ErrRNGState) {
		t.Fatalf("Attach: got %v, want fuzz.ErrRNGState", err)
	}
}

// TestFleetStopAnywhereResumes stops the fleet from another goroutine
// at an arbitrary wall-clock moment — each worker at whatever boundary
// it has reached, the two at different exec counts — and asserts
// resume still converges to the uninterrupted result.
func TestFleetStopAnywhereResumes(t *testing.T) {
	clean := runFleet(t, t.TempDir(), fleetOpts(2))
	want := canonical(t, clean.Merged)

	dir := t.TempDir()
	s := fleet.New(dir, fleetOpts(2))
	if err := s.Start(compileT(t), testOpts(), testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Millisecond, s.Stop)
	defer timer.Stop()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	final := res
	if res.Interrupted {
		final = resumeFleet(t, dir, fleetOpts(2))
		if final.Interrupted {
			t.Fatal("resumed fleet interrupted without a stop request")
		}
	}
	if got := canonical(t, final.Merged); !bytes.Equal(got, want) {
		t.Fatalf("fleet stopped at an arbitrary point resumed to a different report (%d vs %d canonical bytes)", len(got), len(want))
	}

	// Stopped on the exec that reaches the budget, the fleet is
	// interrupted too, and its resume counts the cycles the stop cut
	// short.
	atBudget := t.TempDir()
	opts := fleetOpts(2)
	opts.StopAfter = testBudget
	if res := runFleet(t, atBudget, opts); !res.Interrupted {
		t.Fatal("fleet stopped at its budget reported as finished")
	}
	final = resumeFleet(t, atBudget, fleetOpts(2))
	if final.Interrupted {
		t.Fatal("resumed fleet interrupted without a stop request")
	}
	if got, want := final.Merged.Stats.Cycles, clean.Merged.Stats.Cycles; got != want {
		t.Fatalf("fleet stopped at its budget resumed to %d cycles, uninterrupted %d", got, want)
	}
	if got := canonical(t, final.Merged); !bytes.Equal(got, want) {
		t.Fatalf("fleet stopped at its budget resumed to a different report (%d vs %d canonical bytes)", len(got), len(want))
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &fleet.Manifest{
		Workers:     2,
		MaxRestarts: 3,
		Meta:        testMeta(),
		Quarantine:  []fuzz.PoisonRec{{Worker: 1, Msg: "boom", Input: []byte("bad"), Execs: 42, Count: 1}},
		Restarts:    1,
		Retired:     []bool{false, false},
		Done:        []bool{false, true},
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fleet.DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workers != 2 || got.MaxRestarts != 3 || got.Restarts != 1 ||
		len(got.Quarantine) != 1 || got.Done[0] || !got.Done[1] {
		t.Fatalf("round trip mangled manifest: %+v", got)
	}

	// One lifecycle flag per worker: a worker count the flags do not
	// back is refused.
	bad := *m
	bad.Workers = 3
	if data, err := bad.Encode(); err != nil {
		t.Fatal(err)
	} else if _, err := fleet.DecodeManifest(data); err == nil {
		t.Fatal("manifest with 3 workers and 2 lifecycle flags decoded without error")
	}

	// A fleet an older build ran with corpus sync still decodes, for
	// paprof, but Attach refuses to resume it without sync.
	synced := *m
	synced.SyncEvery = 20000
	if data, err = synced.Encode(); err != nil {
		t.Fatal(err)
	}
	if got, err = fleet.DecodeManifest(data); err != nil {
		t.Fatal(err)
	}
	if got.SyncEvery != 20000 {
		t.Fatalf("decoded SyncEvery = %d, want 20000", got.SyncEvery)
	}
	err = fleet.New(t.TempDir(), fleetOpts(2)).Attach(compileT(t), testOpts(), got)
	if !errors.Is(err, fleet.ErrSynced) {
		t.Fatalf("Attach of a synced fleet: got %v, want fleet.ErrSynced", err)
	}

	// A torn write must be detected, not half-decoded.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := fleet.DecodeManifest(corrupt); err == nil {
		t.Fatal("corrupted manifest decoded without error")
	}
	if _, err := fleet.DecodeManifest(data[:len(data)-3]); err == nil {
		t.Fatal("truncated manifest decoded without error")
	}
}
