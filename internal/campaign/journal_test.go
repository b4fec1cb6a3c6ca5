package campaign

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/journal"
)

func gobSnap(t *testing.T, s *fuzz.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openJournalT(t *testing.T, dir string) *journal.Writer {
	t.Helper()
	w, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func journalSegBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "seg-*.jsonl"))
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

// TestJournalDisplayOnly: a durable campaign with a journal attached
// must produce a canonical report byte-identical to one without — the
// on/off acceptance invariant at the campaign layer, where checkpoints
// and the StopAfter machinery are also in play.
func TestJournalDisplayOnly(t *testing.T) {
	opts := testOpts()
	want := baseline(t, opts)

	dir := t.TempDir()
	w := openJournalT(t, dir)
	opts.Journal = w
	r := NewRunner(dir, Config{FS: OSFS{}, Interval: testInterval, Keep: 3})
	if err := r.Start(compileT(t), opts, testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	rep, interrupted, err := r.Run()
	if err != nil || interrupted || rep == nil {
		t.Fatalf("journaled run did not complete: err=%v interrupted=%v", err, interrupted)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := CanonicalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journaling changed the canonical report (%d vs %d bytes)", len(got), len(want))
	}
}

// TestJournalResumeGapless: interrupting a journaled campaign and
// resuming it must leave a journal byte-identical to an uninterrupted
// journaled run's, with the resume truncation invisible in the stream —
// gapless seq, one start, one finish.
func TestJournalResumeGapless(t *testing.T) {
	opts := testOpts()

	// Uninterrupted journaled reference.
	dirA := t.TempDir()
	wA := openJournalT(t, dirA)
	oA := opts
	oA.Journal = wA
	rA := NewRunner(dirA, Config{FS: OSFS{}, Interval: testInterval, Keep: 3})
	if err := rA.Start(compileT(t), oA, testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	if rep, interrupted, err := rA.Run(); err != nil || interrupted || rep == nil {
		t.Fatalf("reference run did not complete: err=%v interrupted=%v", err, interrupted)
	}
	if err := wA.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: StopAfter kills it past the last checkpoint, so
	// the on-disk journal carries events the checkpoint never saw.
	dirB := t.TempDir()
	wB := openJournalT(t, dirB)
	oB := opts
	oB.Journal = wB
	rB := NewRunner(dirB, Config{FS: OSFS{}, Interval: testInterval, Keep: 3, StopAfter: testStop})
	if err := rB.Start(compileT(t), oB, testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	if _, interrupted, err := rB.Run(); err != nil || !interrupted {
		t.Fatalf("expected interruption: err=%v interrupted=%v", err, interrupted)
	}
	if err := wB.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume with a fresh writer over the same journal directory: Attach
	// → Restore truncates it to the checkpoint's JournalSeq and the
	// replay re-emits the tail.
	ck, warns, err := LoadLatest(OSFS{}, dirB)
	if err != nil {
		t.Fatalf("LoadLatest: %v (warnings %v)", err, warns)
	}
	wB2 := openJournalT(t, dirB)
	oB2 := opts
	oB2.Journal = wB2
	rB2 := NewRunner(dirB, Config{FS: OSFS{}, Interval: testInterval, Keep: 3})
	if err := rB2.Attach(compileT(t), oB2, ck); err != nil {
		t.Fatal(err)
	}
	if got := wB2.Seq(); got != ck.Snap.JournalSeq {
		t.Fatalf("attach truncated journal to seq %d, checkpoint says %d", got, ck.Snap.JournalSeq)
	}
	if rep, interrupted, err := rB2.Run(); err != nil || interrupted || rep == nil {
		t.Fatalf("resumed run did not complete: err=%v interrupted=%v", err, interrupted)
	}
	if err := wB2.Close(); err != nil {
		t.Fatal(err)
	}

	a, b := journalSegBytes(t, dirA), journalSegBytes(t, dirB)
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed journal differs from uninterrupted (%d vs %d bytes)", len(a), len(b))
	}

	events, diag, err := journal.ReadDir(filepath.Join(dirB, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !diag.OK() {
		t.Fatalf("resumed journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
	counts := journal.KindCounts(events)
	if counts[journal.KindStart] != 1 || counts[journal.KindFinish] != 1 {
		t.Fatalf("want exactly one start and one finish, got %v", counts)
	}

	// The crash findings have flight-recorder context: one dump per bug
	// key, sitting in the journal's flight directory under the same
	// sanitized name as the crash input in crashes/.
	crashNames, err := os.ReadDir(filepath.Join(dirB, "crashes"))
	if err != nil || len(crashNames) == 0 {
		t.Fatalf("no persisted crash inputs: %v", err)
	}
	for _, n := range crashNames {
		dump := filepath.Join(dirB, "journal", journal.FlightDir, "crash-"+n.Name()+".jsonl")
		if _, err := os.Stat(dump); err != nil {
			t.Errorf("crash input %s has no flight dump: %v", n.Name(), err)
		}
	}
}

// TestJournalTornSegmentRecovery: a campaign whose process died mid
// journal write (torn tail) must resume cleanly — the writer drops the
// torn line, and the resumed stream is still gapless.
func TestJournalTornSegmentRecovery(t *testing.T) {
	opts := testOpts()
	dir := t.TempDir()
	w := openJournalT(t, dir)
	o := opts
	o.Journal = w
	r := NewRunner(dir, Config{FS: OSFS{}, Interval: testInterval, Keep: 3, StopAfter: testStop})
	if err := r.Start(compileT(t), o, testMeta(), testSeeds); err != nil {
		t.Fatal(err)
	}
	if _, interrupted, err := r.Run(); err != nil || !interrupted {
		t.Fatalf("expected interruption: err=%v interrupted=%v", err, interrupted)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: a partial, newline-less event line
	// after the last durably flushed one. (Checkpointing flushes the
	// journal, so a real torn tail is always such an in-flight suffix,
	// never a flushed prefix byte.)
	segs, _ := filepath.Glob(filepath.Join(dir, "journal", "seg-*.jsonl"))
	if len(segs) == 0 {
		t.Fatal("no journal segments")
	}
	last := segs[len(segs)-1]
	fh, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(`{"seq":99999,"v":1,"kind":"novel`); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	ck, warns, err := LoadLatest(OSFS{}, dir)
	if err != nil {
		t.Fatalf("LoadLatest: %v (warnings %v)", err, warns)
	}
	w2 := openJournalT(t, dir)
	o2 := opts
	o2.Journal = w2
	r2 := NewRunner(dir, Config{FS: OSFS{}, Interval: testInterval, Keep: 3})
	if err := r2.Attach(compileT(t), o2, ck); err != nil {
		t.Fatal(err)
	}
	if rep, interrupted, err := r2.Run(); err != nil || interrupted || rep == nil {
		t.Fatalf("resume over torn journal did not complete: err=%v interrupted=%v", err, interrupted)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, diag, err := journal.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !diag.OK() {
		t.Fatalf("journal not OK after torn-tail resume: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
}

// TestJournalCheckpointIdentical: checkpoints written with a journal
// attached must be byte-identical to ones written without — the
// emitted-event counter advances either way, so JournalSeq matches and
// nothing else in the snapshot may depend on the writer.
func TestJournalCheckpointIdentical(t *testing.T) {
	opts := testOpts()
	run := func(w *journal.Writer) *fuzz.Snapshot {
		o := opts
		o.Journal = w
		f, err := fuzz.New(compileT(t), o)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range testSeeds {
			f.AddSeed(s)
		}
		f.Fuzz(testStop)
		return f.Snapshot()
	}
	plain := run(nil)

	dir := t.TempDir()
	w := openJournalT(t, dir)
	journaled := run(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobSnap(t, plain), gobSnap(t, journaled)) {
		t.Fatal("journaling changed the checkpoint bytes")
	}
}

// TestFinishEmittedOnce: a campaign's journal holds exactly one finish
// event however often it is resumed. Resuming a campaign that already
// finished emits none; a campaign interrupted at the boundary where its
// exec count reached the budget emits it when resumed, with the cycle
// count of the uninterrupted campaign.
func TestFinishEmittedOnce(t *testing.T) {
	opts := testOpts()
	// finishes counts the journal's finish events and returns the last
	// one's cycle.
	finishes := func(dir string) (n, cycle int) {
		t.Helper()
		events, diag, err := journal.ReadDir(filepath.Join(dir, "journal"))
		if err != nil {
			t.Fatal(err)
		}
		if !diag.OK() {
			t.Fatalf("journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
		}
		for _, ev := range events {
			if ev.Kind == journal.KindFinish {
				n++
				cycle = ev.Cycle
			}
		}
		return n, cycle
	}
	run := func(dir string, stopAfter int64, ck *Checkpoint) *fuzz.Report {
		t.Helper()
		w := openJournalT(t, dir)
		o := opts
		o.Journal = w
		r := NewRunner(dir, Config{FS: OSFS{}, Interval: testInterval, Keep: 3, StopAfter: stopAfter})
		var err error
		if ck == nil {
			err = r.Start(compileT(t), o, testMeta(), testSeeds)
		} else {
			err = r.Attach(compileT(t), o, ck)
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	resume := func(dir string) *fuzz.Report {
		t.Helper()
		ck, warns, err := LoadLatest(OSFS{}, dir)
		if err != nil {
			t.Fatalf("LoadLatest: %v (warnings %v)", err, warns)
		}
		return run(dir, 0, ck)
	}

	done := t.TempDir()
	want := run(done, 0, nil).Stats.Cycles
	n, wantCycle := finishes(done)
	if n != 1 {
		t.Fatalf("finished campaign: %d finish events, want 1", n)
	}
	if wantCycle != want {
		t.Fatalf("finished campaign: finish event at cycle %d, report counts %d cycles", wantCycle, want)
	}
	resume(done)
	if n, _ := finishes(done); n != 1 {
		t.Errorf("resuming a finished campaign: %d finish events, want 1", n)
	}

	// Stopped on the exec that reaches the budget, the campaign leaves
	// the queue loop before counting its cycle; the resumed campaign
	// must count it, in its report and in its finish event.
	atBudget := t.TempDir()
	if rep := run(atBudget, testBudget, nil); rep == nil || rep.Stats.Execs < testBudget {
		t.Fatalf("stop at the budget boundary did not reach the budget: %+v", rep)
	}
	if n, _ := finishes(atBudget); n != 0 {
		t.Fatalf("campaign stopped at the budget boundary: %d finish events before resume, want 0", n)
	}
	if got := resume(atBudget).Stats.Cycles; got != want {
		t.Errorf("resumed at the budget boundary: %d cycles, uninterrupted %d", got, want)
	}
	if n, cycle := finishes(atBudget); n != 1 || cycle != wantCycle {
		t.Errorf("resuming a campaign stopped at the budget boundary: %d finish events at cycle %d, want 1 at cycle %d", n, cycle, wantCycle)
	}
	if got := resume(atBudget).Stats.Cycles; got != want {
		t.Errorf("resumed again: %d cycles, uninterrupted %d", got, want)
	}
	if n, _ := finishes(atBudget); n != 1 {
		t.Errorf("resuming it again: %d finish events, want 1", n)
	}
}
