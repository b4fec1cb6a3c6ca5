package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/fuzz"
)

// testImport is the exec count past which importingBoundary imports.
const testImport = 7000

// importingBoundary returns a Boundary hook shaped like a fleet sync: at
// the first queue-entry boundary at or past testImport it executes 64
// inputs (AddSeed, as sync imports do). restoredAt is the exec count
// the campaign resumes from; past testImport the import already
// happened. at receives the exec count the import ended at.
func importingBoundary(restoredAt int64, at *int64) func(*fuzz.Fuzzer) bool {
	done := restoredAt >= testImport
	return func(f *fuzz.Fuzzer) bool {
		if done || f.Execs() < testImport {
			return true
		}
		done = true
		for i := 0; i < 64; i++ {
			f.AddSeed([]byte(fmt.Sprintf("import %d", i)))
		}
		*at = f.Execs()
		return true
	}
}

// TestCheckpointAfterBoundaryWork: a Boundary hook's own executions (a
// fleet sync's imports) are part of the state the runner checkpoints at
// that boundary, so a stop there checkpoints at the importing boundary
// itself, and the campaign resumed from that checkpoint equals the
// uninterrupted one.
func TestCheckpointAfterBoundaryWork(t *testing.T) {
	var at int64
	f, err := fuzz.New(compileT(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range testSeeds {
		f.AddSeed(s)
	}
	f.SetCheckpointHook(importingBoundary(0, &at))
	f.Fuzz(testBudget)
	want, err := CanonicalReport(f.Report())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var imported int64
	r := NewRunner(dir, Config{
		Interval:  testInterval,
		StopAfter: testImport,
		Boundary:  importingBoundary(0, &imported),
	})
	if err := r.Start(compileT(t), testOpts(), testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	if _, interrupted, err := r.Run(); err != nil || !interrupted {
		t.Fatalf("interrupted=%v err=%v", interrupted, err)
	}
	if imported == 0 {
		t.Fatal("the boundary never imported")
	}
	validateCheckpoints(t, OSFS{}, dir)
	ck, _, err := LoadLatest(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ck.Snap.Stats.Execs; got != imported {
		t.Fatalf("shutdown checkpoint at %d execs, want the importing boundary (%d)", got, imported)
	}

	r = NewRunner(dir, Config{Interval: testInterval, Boundary: importingBoundary(ck.Snap.Stats.Execs, &at)})
	if err := r.Attach(compileT(t), testOpts(), ck); err != nil {
		t.Fatal(err)
	}
	rep, interrupted, err := r.Run()
	if err != nil || interrupted {
		t.Fatalf("resumed run: interrupted=%v err=%v", interrupted, err)
	}
	got, err := CanonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted (%d vs %d canonical bytes)", len(got), len(want))
	}
}

// TestRefuzzFinishedCampaign: fuzzing a finished campaign again leaves
// its report unchanged, whether its final snapshot is restored and
// fuzzed to the budget or the runner attaches to its final checkpoint.
func TestRefuzzFinishedCampaign(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(dir, Config{Interval: testInterval})
	if err := r.Start(compileT(t), testOpts(), testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	rep, interrupted, err := r.Run()
	if err != nil || interrupted {
		t.Fatalf("interrupted=%v err=%v", interrupted, err)
	}
	want, err := CanonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := LoadLatest(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Snap.Stats.Execs < testBudget {
		t.Fatalf("latest checkpoint at %d execs, want the finished campaign's", ck.Snap.Stats.Execs)
	}

	f, err := fuzz.Restore(compileT(t), testOpts(), ck.Snap)
	if err != nil {
		t.Fatal(err)
	}
	f.Fuzz(testBudget)
	if got, err := CanonicalReport(f.Report()); err != nil || !bytes.Equal(got, want) {
		t.Errorf("restored and fuzzed again: report differs from the finished campaign's (err %v)", err)
	}

	r = NewRunner(dir, Config{Interval: testInterval})
	if err := r.Attach(compileT(t), testOpts(), ck); err != nil {
		t.Fatal(err)
	}
	if rep, interrupted, err = r.Run(); err != nil || interrupted {
		t.Fatalf("attached run: interrupted=%v err=%v", interrupted, err)
	}
	if got, err := CanonicalReport(rep); err != nil || !bytes.Equal(got, want) {
		t.Errorf("attached and run again: report differs from the finished campaign's (err %v)", err)
	}
}

// dropRNGState rewrites the checkpoint at path as an older build wrote
// it: a draw count and no generator ring.
func dropRNGState(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(data)
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

// TestResumeRefusesCheckpointWithoutRNGState: a checkpoint from before
// snapshots carried the generator's ring still loads (paprof reads it),
// but resuming it fails with fuzz.ErrRNGState.
func TestResumeRefusesCheckpointWithoutRNGState(t *testing.T) {
	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, testOpts())
	dropRNGState(t, newestCheckpoint(t, dir))
	ck, _, err := LoadLatest(OSFS{}, dir)
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if len(ck.Snap.RNGState) != 0 {
		t.Fatal("LoadLatest fell back past the rewritten checkpoint")
	}
	err = NewRunner(dir, Config{}).Attach(compileT(t), testOpts(), ck)
	if !errors.Is(err, fuzz.ErrRNGState) {
		t.Fatalf("Attach: got %v, want fuzz.ErrRNGState", err)
	}
}

// FuzzCheckpointRestore feeds mutated checkpoint payloads through the
// whole resume path: the payload is re-sealed (so the mutated bytes
// reach gob rather than failing the checksum), decoded, restored onto
// the program the seed checkpoint came from, and fuzzed for 64 execs.
// Decoded state must fail with an error or resume with bounded work;
// it must never panic or hang.
func FuzzCheckpointRestore(f *testing.F) {
	dir := f.TempDir()
	r := NewRunner(dir, Config{Interval: testInterval, StopAfter: testStop})
	if err := r.Start(compileT(f), testOpts(), testMeta(), testSeeds); err != nil {
		f.Fatal(err)
	}
	if _, interrupted, err := r.Run(); err != nil || !interrupted {
		f.Fatalf("seed campaign: interrupted=%v err=%v", interrupted, err)
	}
	sealed, err := os.ReadFile(newestCheckpoint(f, dir))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := Open(sealed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)

	prog := compileT(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		ck, err := DecodeCheckpoint(Seal(payload))
		if err != nil {
			return
		}
		fz, err := fuzz.Restore(prog, testOpts(), ck.Snap)
		if err != nil {
			return
		}
		fz.Fuzz(fz.Execs() + 64)
	})
}
