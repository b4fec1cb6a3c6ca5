package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// testSrc has a shallow magic-byte abort plus a deeper out-of-bounds
// write, so campaigns accumulate both bugs and queue structure.
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
	testBudget   = 20000
	testInterval = 2500
	testStop     = 9000
)

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

func testMeta() Meta {
	return Meta{Fuzzer: "path", Seed: 7, Budget: testBudget, MapSize: 1 << 12, Entry: "main"}
}

var testSeeds = [][]byte{[]byte("xxxx"), []byte("good")}

// baseline runs the same campaign uninterrupted on a plain fuzzer and
// returns its canonical report bytes — the reference every durability
// test compares against.
func baseline(t *testing.T, opts fuzz.Options) []byte {
	t.Helper()
	f, err := fuzz.New(compileT(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range testSeeds {
		f.AddSeed(s)
	}
	f.Fuzz(testBudget)
	rep := f.Report()
	if len(rep.Bugs) == 0 {
		t.Fatalf("baseline found no bugs in %d execs; the test program is too hard", rep.Stats.Execs)
	}
	data, err := CanonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// interruptedStart runs a durable campaign that stops at testStop execs
// and returns the state dir, asserting the interruption happened.
func interruptedStart(t *testing.T, fs FS, dir string, opts fuzz.Options) {
	t.Helper()
	r := NewRunner(dir, Config{FS: fs, Interval: testInterval, Keep: 3, StopAfter: testStop})
	if err := r.Start(compileT(t), opts, testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	rep, interrupted, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted || rep != nil {
		t.Fatalf("expected interruption at %d execs, got interrupted=%v rep=%v", testStop, interrupted, rep)
	}
	if got := r.Fuzzer().Execs(); got < testStop || got >= testBudget {
		t.Fatalf("stopped at %d execs, want in [%d, %d)", got, testStop, testBudget)
	}
	validateCheckpoints(t, fs, dir)
}

// validateCheckpoints decodes every checkpoint kept in dir and asserts
// its snapshot satisfies fuzz.Snapshot.Validate, the invariants Restore
// enforces on decoded state.
func validateCheckpoints(t *testing.T, fs FS, dir string) {
	t.Helper()
	names, err := listCheckpoints(fs, dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoints in %s: %v", dir, err)
	}
	for _, name := range names {
		data, err := fs.ReadFile(join(dir, checkpointsDir, name))
		if err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ck.Snap.Validate(); err != nil {
			t.Fatalf("%s breaks the snapshot invariants: %v", name, err)
		}
	}
}

// resumeToEnd loads the latest checkpoint from dir and runs the
// campaign to completion, returning the canonical report and any load
// warnings.
func resumeToEnd(t *testing.T, fs FS, dir string, opts fuzz.Options) ([]byte, []string) {
	t.Helper()
	ck, warns, err := LoadLatest(fs, dir)
	if err != nil {
		t.Fatalf("LoadLatest: %v (warnings: %v)", err, warns)
	}
	r := NewRunner(dir, Config{FS: fs, Interval: testInterval, Keep: 3})
	if err := r.Attach(compileT(t), opts, ck); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	rep, interrupted, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if interrupted || rep == nil {
		t.Fatalf("resumed run did not complete: interrupted=%v", interrupted)
	}
	data, err := CanonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data, warns
}

// TestResumeDeterminism is the core durability guarantee: a campaign
// interrupted mid-run and resumed from its checkpoint produces a final
// report byte-identical to the same campaign run uninterrupted.
func TestResumeDeterminism(t *testing.T) {
	opts := testOpts()
	want := baseline(t, opts)

	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, opts)
	got, _ := resumeToEnd(t, OSFS{}, dir, opts)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted baseline (%d vs %d canonical bytes)", len(got), len(want))
	}

	// Crash inputs were persisted, named by sanitized bug key.
	names, err := os.ReadDir(filepath.Join(dir, "crashes"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no crash inputs persisted: %v", err)
	}
}

// TestDoubleResumeDeterminism interrupts twice: once via StopAfter on
// the fresh campaign and once via StopAfter on the first resume.
func TestDoubleResumeDeterminism(t *testing.T) {
	opts := testOpts()
	want := baseline(t, opts)

	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, opts)

	// First resume, interrupted again further in.
	ck, _, err := LoadLatest(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(dir, Config{FS: OSFS{}, Interval: testInterval, Keep: 3, StopAfter: 15000})
	if err := r.Attach(compileT(t), opts, ck); err != nil {
		t.Fatal(err)
	}
	if _, interrupted, err := r.Run(); err != nil || !interrupted {
		t.Fatalf("second interruption: interrupted=%v err=%v", interrupted, err)
	}

	got, _ := resumeToEnd(t, OSFS{}, dir, opts)
	if !bytes.Equal(got, want) {
		t.Fatal("doubly-resumed report differs from uninterrupted baseline")
	}
}

// newestCheckpoint returns the path of the newest checkpoint file.
func newestCheckpoint(t testing.TB, dir string) string {
	t.Helper()
	names, err := listCheckpoints(OSFS{}, dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoints in %s: %v", dir, err)
	}
	return filepath.Join(dir, checkpointsDir, names[0])
}

// TestResumeFallbackTruncated truncates the newest checkpoint (a torn
// write) and verifies resume falls back to the previous one and still
// reproduces the baseline exactly.
func TestResumeFallbackTruncated(t *testing.T) {
	opts := testOpts()
	want := baseline(t, opts)

	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, opts)

	path := newestCheckpoint(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	got, warns := resumeToEnd(t, OSFS{}, dir, opts)
	if len(warns) == 0 {
		t.Error("expected a warning about the truncated checkpoint")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resume after truncated checkpoint differs from baseline")
	}
}

// TestResumeFallbackCorrupt flips a payload byte in the newest
// checkpoint and verifies the checksum rejects it, the previous
// checkpoint is used, and the final report still matches the baseline.
func TestResumeFallbackCorrupt(t *testing.T) {
	opts := testOpts()
	want := baseline(t, opts)

	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, opts)

	path := newestCheckpoint(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, warns := resumeToEnd(t, OSFS{}, dir, opts)
	found := false
	for _, w := range warns {
		if strings.Contains(w, "checksum") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a checksum warning, got %v", warns)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resume after corrupt checkpoint differs from baseline")
	}
}

// TestResumeAllCorrupt corrupts every checkpoint: LoadLatest must
// return ErrNoCheckpoint rather than resurrecting bad state.
func TestResumeAllCorrupt(t *testing.T) {
	opts := testOpts()
	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, opts)

	names, err := listCheckpoints(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := os.Truncate(filepath.Join(dir, checkpointsDir, n), 10); err != nil {
			t.Fatal(err)
		}
	}
	_, warns, err := LoadLatest(OSFS{}, dir)
	if err != ErrNoCheckpoint {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
	if len(warns) != len(names) {
		t.Fatalf("want %d warnings, got %v", len(names), warns)
	}
}

// TestCheckpointShortWrite exhausts the filesystem write budget
// mid-campaign: periodic checkpoints short-write and fail, but the
// campaign itself must complete with a baseline-identical report, and
// the surviving checkpoints must stay valid (torn temp files are never
// renamed over good state).
func TestCheckpointShortWrite(t *testing.T) {
	opts := testOpts()
	want := baseline(t, opts)

	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	var log bytes.Buffer
	r := NewRunner(dir, Config{FS: ffs, Interval: testInterval, Keep: 3, Log: &log})
	if err := r.Start(compileT(t), opts, testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	// Everything after the initial checkpoint hits a nearly-full disk.
	ffs.WriteBudget = 512
	rep, interrupted, err := r.Run()
	if err != nil || interrupted {
		t.Fatalf("campaign should survive checkpoint failures: interrupted=%v err=%v", interrupted, err)
	}
	got, err := CanonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report after checkpoint write failures differs from baseline")
	}
	if !strings.Contains(log.String(), "failed") {
		t.Errorf("expected failure warnings in log, got %q", log.String())
	}
	// Whatever checkpoints remain must be loadable without warnings.
	if _, warns, err := LoadLatest(OSFS{}, dir); err != nil || len(warns) != 0 {
		t.Fatalf("surviving checkpoints not clean: warns=%v err=%v", warns, err)
	}
}

// TestCheckpointRenameAndSyncFailures fails renames and syncs for a few
// periodic checkpoints; the campaign completes and later checkpoints
// succeed.
func TestCheckpointRenameAndSyncFailures(t *testing.T) {
	opts := testOpts()
	want := baseline(t, opts)

	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	ffs.FailRenames = 1
	ffs.FailSyncs = 1
	var log bytes.Buffer
	r := NewRunner(dir, Config{FS: ffs, Interval: testInterval, Keep: 3, Log: &log})
	if err := r.Start(compileT(t), opts, testMeta(), testSeeds); err == nil {
		t.Fatal("initial checkpoint should fail under an armed rename fault")
	}

	// Re-arm: let the initial checkpoint through, fail two periodic ones.
	ffs = NewFaultFS(OSFS{})
	r = NewRunner(dir, Config{FS: ffs, Interval: testInterval, Keep: 3, Log: &log})
	if err := r.Start(compileT(t), opts, testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	ffs.FailRenames = 1
	ffs.FailSyncs = 1
	rep, interrupted, err := r.Run()
	if err != nil || interrupted {
		t.Fatalf("campaign should survive rename/sync faults: interrupted=%v err=%v", interrupted, err)
	}
	got, err := CanonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report after rename/sync faults differs from baseline")
	}
	if ck, warns, err := LoadLatest(OSFS{}, dir); err != nil || len(warns) != 0 {
		t.Fatalf("checkpoints not clean after faults: warns=%v err=%v", warns, err)
	} else if ck.Snap.Stats.Execs != testBudget {
		t.Fatalf("final checkpoint at %d execs, want %d", ck.Snap.Stats.Execs, testBudget)
	}
}

// TestInjectedVMPanicDeterminism runs the whole interrupt/resume cycle
// with a deterministic execution-fault injector: panics are quarantined
// as internal faults, the campaign reaches its full budget, and resume
// determinism still holds.
func TestInjectedVMPanicDeterminism(t *testing.T) {
	opts := testOpts()
	opts.FaultInjector = func(execs int64, _ []byte) bool { return execs%251 == 13 }
	want := baseline(t, opts)

	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, opts)
	got, _ := resumeToEnd(t, OSFS{}, dir, opts)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed faulting campaign differs from uninterrupted baseline")
	}

	// The injector fired and was quarantined, not fatal.
	ck, _, err := LoadLatest(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Snap.Stats.InternalFaults == 0 {
		t.Fatal("no internal faults recorded despite injector")
	}
	if ck.Snap.Stats.Execs != testBudget {
		t.Fatalf("faulting campaign stopped at %d execs, want %d", ck.Snap.Stats.Execs, testBudget)
	}
	if len(ck.Snap.Bugs) == 0 {
		t.Fatal("crash state lost under fault injection")
	}
	names, err := os.ReadDir(filepath.Join(dir, "faults"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fault inputs persisted: %v", err)
	}
}

// TestVMStepPanicQuarantine injects a panic inside the interpreter
// itself (not the fuzz layer) on long executions and checks the fuzzer
// quarantines it and keeps finding the shallow bug.
func TestVMStepPanicQuarantine(t *testing.T) {
	opts := testOpts()
	lim := vm.DefaultLimits()
	lim.InjectPanicAtStep = 25 // deep enough that only some inputs reach it
	opts.Limits = lim

	f, err := fuzz.New(compileT(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range testSeeds {
		f.AddSeed(s)
	}
	f.Fuzz(testBudget)
	rep := f.Report()
	if rep.Stats.Execs != testBudget {
		t.Fatalf("fuzzer stopped early at %d execs", rep.Stats.Execs)
	}
	if rep.Stats.InternalFaults == 0 {
		t.Fatal("interpreter panics were not recorded as internal faults")
	}
	if len(rep.Faults) == 0 {
		t.Fatal("no fault records in report")
	}
	if len(rep.Bugs) == 0 {
		t.Fatal("quarantine cost the fuzzer its real findings")
	}
}

// TestSealOpenRejects covers the frame validator's corruption modes
// directly.
func TestSealOpenRejects(t *testing.T) {
	payload := []byte("state")
	sealed := Seal(payload)

	if got, err := Open(sealed); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v", err)
	}
	if _, err := Open(sealed[:headerLen-1]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Open(sealed[:len(sealed)-2]); err == nil {
		t.Error("truncated payload accepted")
	}
	bad := append([]byte{}, sealed...)
	bad[headerLen] ^= 1
	if _, err := Open(bad); err == nil {
		t.Error("corrupt payload accepted")
	}
	bad = append([]byte{}, sealed...)
	bad[0] = 'X'
	if _, err := Open(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte{}, sealed...)
	bad[11] = 99 // version field
	if _, err := Open(bad); err == nil {
		t.Error("bad version accepted")
	}
}

// TestSanitizeName pins the filename mapping.
func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"oob-write:main:3:5": "oob-write_main_3_5",
		"":                   "_",
		"a b/c":              "a_b_c",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := SanitizeName(strings.Repeat("x", 300)); len(got) != 128 {
		t.Errorf("long name not capped: %d", len(got))
	}
}
