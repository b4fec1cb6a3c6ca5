package fuzz

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/instrument"
)

func snapOpts() Options {
	return Options{Feedback: instrument.FeedbackPath, Seed: 3, MapSize: 1 << 12, KeepCrashInputs: true}
}

// snapSeeds gives the corpus some shape before snapshotting.
var snapSeeds = [][]byte{[]byte("xx"), []byte("hello world"), []byte("AAAA")}

func newSnapFuzzer(t *testing.T, budget int64) *Fuzzer {
	t.Helper()
	f, err := New(compileT(t, fig1), snapOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snapSeeds {
		f.AddSeed(s)
	}
	if budget > 0 {
		f.Fuzz(budget)
	}
	return f
}

func encodeSnap(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRestoreRoundTrip: restoring a snapshot and snapshotting
// again must produce byte-identical state.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	f := newSnapFuzzer(t, 8000)
	snap := f.Snapshot()
	f2, err := Restore(f.prog, snapOpts(), snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := encodeSnap(t, f2.Snapshot()), encodeSnap(t, snap); !bytes.Equal(got, want) {
		t.Fatalf("snapshot not stable across restore: %d vs %d bytes", len(got), len(want))
	}
}

// TestRestoreFavoredInvariants checks the culling invariants the resume
// path must preserve: the favored set is identical entry-for-entry, the
// queue has no duplicates, and re-culling the restored corpus is a
// no-op relative to the original.
func TestRestoreFavoredInvariants(t *testing.T) {
	f := newSnapFuzzer(t, 8000)
	f2, err := Restore(f.prog, snapOpts(), f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	if len(f2.queue) != len(f.queue) {
		t.Fatalf("queue length changed: %d -> %d", len(f.queue), len(f2.queue))
	}
	seen := make(map[string]bool)
	for i := range f.queue {
		a, b := f.queue[i], f2.queue[i]
		if !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("entry %d data differs", i)
		}
		if a.Favored != b.Favored {
			t.Fatalf("entry %d favored %v -> %v", i, a.Favored, b.Favored)
		}
		if seen[string(b.Data)] {
			t.Fatalf("duplicate queue entry after restore: %q", b.Data)
		}
		seen[string(b.Data)] = true
	}
	if f2.pendingFavored != f.pendingFavored {
		t.Fatalf("pendingFavored %d -> %d", f.pendingFavored, f2.pendingFavored)
	}

	// topRated champions must be recalibrated to the same entries.
	if len(f2.topRated) != len(f.topRated) {
		t.Fatalf("topRated size %d -> %d", len(f.topRated), len(f2.topRated))
	}
	for idx, e := range f.topRated {
		e2, ok := f2.topRated[idx]
		if !ok || !bytes.Equal(e.Data, e2.Data) {
			t.Fatalf("topRated[%d] champion differs after restore", idx)
		}
	}

	// Re-culling both must mark the same favored set (cullFavored is
	// deterministic in queue order, so the sets stay aligned).
	f.cullFavored()
	f2.cullFavored()
	for i := range f.queue {
		if f.queue[i].Favored != f2.queue[i].Favored {
			t.Fatalf("favored set diverges at entry %d after re-cull", i)
		}
	}
}

// TestRestoredRunMatchesUninterrupted is the in-package determinism
// check: interrupting via the checkpoint hook, restoring from the
// snapshot, and finishing the budget must equal one uninterrupted run.
func TestRestoredRunMatchesUninterrupted(t *testing.T) {
	const budget = 20000

	base := newSnapFuzzer(t, 0)
	base.Fuzz(budget)
	want := base.Report()

	f := newSnapFuzzer(t, 0)
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
		t.Fatal("hook never fired")
	}
	if f.Execs() >= budget {
		t.Fatalf("hook failed to interrupt: %d execs", f.Execs())
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("checkpoint snapshot breaks its invariants: %v", err)
	}

	f2, err := Restore(f.prog, snapOpts(), snap)
	if err != nil {
		t.Fatal(err)
	}
	f2.Fuzz(budget)
	got := f2.Report()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed report differs from uninterrupted run:\n got: execs=%d queue=%d bugs=%v\nwant: execs=%d queue=%d bugs=%v",
			got.Stats.Execs, got.QueueLen, got.BugKeys(),
			want.Stats.Execs, want.QueueLen, want.BugKeys())
	}
}

// TestRestoreRejectsBadSnapshots: validation failures must surface as
// errors, not corrupt fuzzers.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	f := newSnapFuzzer(t, 3000)

	snap := f.Snapshot()
	snap.Virgin = snap.Virgin[:0]
	snap.Entries[0].Cov = []uint32{1 << 30} // out of range for MapSize 1<<12
	if _, err := Restore(f.prog, snapOpts(), snap); err == nil {
		t.Error("out-of-range coverage index accepted")
	}

	snap = f.Snapshot()
	snap.NextIndex = len(snap.Entries) + 5
	if _, err := Restore(f.prog, snapOpts(), snap); err == nil {
		t.Error("out-of-range cycle position accepted")
	}

	if _, err := Restore(f.prog, snapOpts(), nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

// TestRestoreBeforePrefillEnds: a snapshot taken before the generator
// has used up the 607 outputs it took from math/rand (here, right after
// seed calibration) restores and continues like the original.
func TestRestoreBeforePrefillEnds(t *testing.T) {
	f := newSnapFuzzer(t, 0)
	snap := f.Snapshot()
	if snap.RNGDraws >= rngLen {
		t.Fatalf("calibration drew %d times; the test needs a snapshot before draw %d", snap.RNGDraws, rngLen)
	}
	f2, err := Restore(f.prog, snapOpts(), snap)
	if err != nil {
		t.Fatal(err)
	}
	f.Fuzz(5000)
	f2.Fuzz(5000)
	if got, want := f2.Report(), f.Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored campaign differs: execs %d queue %d, want execs %d queue %d",
			got.Stats.Execs, got.QueueLen, want.Stats.Execs, want.QueueLen)
	}
}

// TestRestoreHugeDrawCount: restoring copies the generator's ring, so a
// snapshot claiming 2^62 draws restores as fast as any other. Replaying
// the draws would never finish; the deadline turns that into a failure
// instead of a hang.
func TestRestoreHugeDrawCount(t *testing.T) {
	f := newSnapFuzzer(t, 3000)
	snap := f.Snapshot()
	snap.RNGDraws = 1 << 62
	done := make(chan error, 1)
	go func() {
		f2, err := Restore(f.prog, snapOpts(), snap)
		if err == nil && f2.rng.draws != snap.RNGDraws {
			err = fmt.Errorf("restored draw count %d, snapshot says %d", f2.rng.draws, snap.RNGDraws)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Restore of a 2^62-draw snapshot did not return within 10s")
	}
}

// TestRestoreRejectsRNGState: a snapshot without the generator's ring
// (the draw-count-only checkpoints of older builds) or with a ring of
// the wrong size fails with ErrRNGState.
func TestRestoreRejectsRNGState(t *testing.T) {
	f := newSnapFuzzer(t, 3000)
	for _, state := range [][]uint64{nil, make([]uint64, rngLen-1), make([]uint64, rngLen+1)} {
		snap := f.Snapshot()
		snap.RNGState = state
		if _, err := Restore(f.prog, snapOpts(), snap); !errors.Is(err, ErrRNGState) {
			t.Errorf("%d-word generator state: got %v, want ErrRNGState", len(state), err)
		}
	}
}

// TestHookSnapshotsValidate: every snapshot a checkpoint hook can take
// satisfies Validate, including after boundary work — executions the
// hook itself runs, as a fleet sync's imports do — and so does the
// snapshot of a campaign whose budget that work spent.
func TestHookSnapshotsValidate(t *testing.T) {
	const budget = 12000
	f := newSnapFuzzer(t, 0)
	hooks := 0
	f.SetCheckpointHook(func(f *Fuzzer) bool {
		hooks++
		if err := f.Snapshot().Validate(); err != nil {
			t.Fatalf("hook %d at %d execs: %v", hooks, f.Execs(), err)
		}
		if f.Execs() >= budget-2000 {
			// Boundary work: import until the budget is spent.
			for i := 0; f.Execs() < budget; i++ {
				f.AddSeed([]byte(fmt.Sprintf("import %d", i)))
			}
		}
		return true
	})
	f.Fuzz(budget)
	if err := f.Snapshot().Validate(); err != nil {
		t.Fatalf("snapshot of the finished campaign: %v", err)
	}
}
