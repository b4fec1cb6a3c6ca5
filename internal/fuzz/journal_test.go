package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/instrument"
	"repro/internal/journal"
)

// journalOpts mirrors snapOpts with a writer attached.
func journalOpts(w *journal.Writer) Options {
	o := snapOpts()
	o.Journal = w
	return o
}

func openJournalT(t *testing.T, dir string) *journal.Writer {
	t.Helper()
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// journalBytes concatenates the journal's segment files for
// byte-identity comparisons.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestJournalOnOffIdentical is the display-only invariant: attaching a
// journal must not change a single observable of the campaign — report,
// event counter, coverage — because emission points advance f.events
// whether or not a writer does the I/O.
func TestJournalOnOffIdentical(t *testing.T) {
	const budget = 20000
	run := func(w *journal.Writer) (*Report, uint64) {
		f, err := New(compileT(t, fig1), journalOpts(w))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snapSeeds {
			f.AddSeed(s)
		}
		f.Fuzz(budget)
		return f.Report(), f.JournalEvents()
	}
	plainRep, plainEvents := run(nil)

	dir := t.TempDir()
	w := openJournalT(t, dir)
	onRep, onEvents := run(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plainRep, onRep) {
		t.Fatalf("journaling changed the report:\n off: execs=%d queue=%d bugs=%v\n  on: execs=%d queue=%d bugs=%v",
			plainRep.Stats.Execs, plainRep.QueueLen, plainRep.BugKeys(),
			onRep.Stats.Execs, onRep.QueueLen, onRep.BugKeys())
	}
	if plainEvents != onEvents {
		t.Fatalf("event counter diverges: off=%d on=%d", plainEvents, onEvents)
	}

	// The stream itself: gapless, schema-clean, bracketed start..finish,
	// and the writer's seq equals the fuzzer's counter.
	events, diag, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.OK() {
		t.Fatalf("journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
	if uint64(len(events)) != onEvents {
		t.Fatalf("journal has %d events, counter says %d", len(events), onEvents)
	}
	if events[0].Kind != journal.KindStart {
		t.Fatalf("first event %q, want start", events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != journal.KindFinish {
		t.Fatalf("last event %q, want finish", last.Kind)
	}
	if last.Execs != onRep.Stats.Execs {
		t.Fatalf("finish event execs %d, report says %d", last.Execs, onRep.Stats.Execs)
	}
}

// TestJournalResumeByteIdentical: interrupting at a checkpoint,
// truncating the journal to the snapshot's JournalSeq (what Restore
// does), and finishing the budget must leave the journal byte-identical
// to an uninterrupted run's — the forensic record has no memory of the
// interruption.
func TestJournalResumeByteIdentical(t *testing.T) {
	const budget = 20000

	runFull := func(dir string) {
		w := openJournalT(t, dir)
		f, err := New(compileT(t, fig1), journalOpts(w))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snapSeeds {
			f.AddSeed(s)
		}
		f.Fuzz(budget)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dirA := t.TempDir()
	runFull(dirA)

	// Interrupted run: the hook stops the campaign a third of the way
	// in, after the snapshot — so events past the checkpoint are already
	// on disk, and the resume must truncate them away.
	dirB := t.TempDir()
	w := openJournalT(t, dirB)
	f, err := New(compileT(t, fig1), journalOpts(w))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snapSeeds {
		f.AddSeed(s)
	}
	var snap *Snapshot
	f.SetCheckpointHook(func(f *Fuzzer) bool {
		if snap == nil && f.Execs() >= budget/3 {
			snap = f.Snapshot()
		}
		// Keep running past the checkpoint so the on-disk journal grows
		// a stale tail, then die mid-campaign.
		return f.Execs() < budget/2
	})
	f.Fuzz(budget)
	if snap == nil {
		t.Fatal("hook never snapshotted")
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("checkpoint snapshot breaks its invariants: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openJournalT(t, dirB)
	f2, err := Restore(f.prog, journalOpts(w2), snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Seq(); got != snap.JournalSeq {
		t.Fatalf("restore truncated journal to seq %d, snapshot says %d", got, snap.JournalSeq)
	}
	f2.Fuzz(budget)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	a, b := journalBytes(t, dirA), journalBytes(t, dirB)
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed journal differs from uninterrupted: %d vs %d bytes", len(a), len(b))
	}
}

// TestJournalCrashFlightDump: every new bug ships a flight-recorder
// dump named after the bug key, holding the events leading up to it.
func TestJournalCrashFlightDump(t *testing.T) {
	p := compileT(t, `
func main(input) {
    if (len(input) < 2) { return 0; }
    if (input[0] == 'A' && input[1] == 'B') {
        abort();
    }
    return 0;
}`)
	dir := t.TempDir()
	w := openJournalT(t, dir)
	f, err := New(p, Options{Feedback: instrument.FeedbackEdge, Seed: 1, MapSize: 1 << 12, Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte("xx"))
	f.Fuzz(30000)
	rep := f.Report()
	if len(rep.Bugs) == 0 {
		t.Fatalf("no bugs found in %d execs", rep.Stats.Execs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for key := range rep.Bugs {
		path := filepath.Join(dir, journal.FlightDir, "crash-"+journal.SanitizeName(key)+".jsonl")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("bug %q has no flight dump: %v", key, err)
		}
	}
	// The crash is on the record too.
	events, _, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if journal.KindCounts(events)[journal.KindCrash] == 0 {
		t.Fatal("no crash events journaled")
	}
}

// TestCorpusProvenance: the report's provenance must mirror the queue —
// seeds rooted at -1, every non-seed's parent a valid earlier entry,
// first-cell credit disjoint across entries.
func TestCorpusProvenance(t *testing.T) {
	f := newSnapFuzzer(t, 20000)
	corpus := f.CorpusProvenance()
	if len(corpus) != len(f.queue) {
		t.Fatalf("provenance has %d entries, queue %d", len(corpus), len(f.queue))
	}
	claimed := make(map[uint32]int)
	for i, m := range corpus {
		if m.ID != i {
			t.Fatalf("entry %d has ID %d", i, m.ID)
		}
		if m.Parent >= 0 && m.Parent >= m.ID {
			t.Fatalf("entry %d claims a later parent %d", m.ID, m.Parent)
		}
		if m.Parent < 0 && m.Stage != "seed" {
			t.Fatalf("rootless entry %d has stage %q", m.ID, m.Stage)
		}
		for _, c := range m.FirstCells {
			if prev, dup := claimed[c]; dup {
				t.Fatalf("cell %d claimed by entries %d and %d", c, prev, m.ID)
			}
			claimed[c] = m.ID
		}
	}

	// SnapshotProvenance over this campaign's checkpoint agrees exactly
	// (the paprof -genealogy path reads snapshots, not live fuzzers).
	fromSnap := SnapshotProvenance(f.Snapshot(), 0)
	if !reflect.DeepEqual(corpus, fromSnap) {
		t.Fatalf("snapshot provenance diverges from live provenance")
	}
	if SnapshotProvenance(nil, 0) != nil {
		t.Fatal("nil snapshot must yield nil provenance")
	}
}
