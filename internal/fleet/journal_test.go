package fleet_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/journal"
)

func openJournalT(t *testing.T, dir string) *journal.Writer {
	t.Helper()
	w, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFleetJournalDisplayOnly: a journaled fleet must merge to the same
// canonical report as an unjournaled one — the shared writer sits on
// the supervisor and every worker, so this exercises the display-only
// invariant across all of them at once.
func TestFleetJournalDisplayOnly(t *testing.T) {
	clean := runFleet(t, t.TempDir(), fleetOpts(2))
	if clean.Interrupted {
		t.Fatal("clean fleet interrupted")
	}
	want := canonical(t, clean.Merged)

	dir := t.TempDir()
	w := openJournalT(t, dir)
	opts := fleetOpts(2)
	opts.Journal = w
	res := runFleet(t, dir, opts)
	if res.Interrupted {
		t.Fatal("journaled fleet interrupted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := canonical(t, res.Merged); !bytes.Equal(got, want) {
		t.Fatalf("journaled fleet differs from plain fleet (%d vs %d canonical bytes)", len(got), len(want))
	}
}

// TestFleetSharedJournalConcurrency is the multi-publisher stress for
// the shared writer: two workers plus the supervisor emit into one
// journal concurrently (run under -race), and the result must be a
// single gapless stream with every publisher represented. Mirrors the
// two-publisher shape of the telemetry fleet test.
func TestFleetSharedJournalConcurrency(t *testing.T) {
	dir := t.TempDir()
	w := openJournalT(t, dir)
	opts := fleetOpts(2)
	opts.Journal = w
	res := runFleet(t, dir, opts)
	if res.Interrupted {
		t.Fatal("fleet interrupted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	events, diag, err := journal.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !diag.OK() {
		t.Fatalf("shared journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
	counts := journal.KindCounts(events)
	// Each worker opens its own campaign stream; workers never sync.
	if counts[journal.KindStart] != 2 {
		t.Fatalf("want one start per worker, got %d", counts[journal.KindStart])
	}
	if counts[journal.KindFinish] != 2 {
		t.Fatalf("want one finish per worker, got %d", counts[journal.KindFinish])
	}
	if counts[journal.KindSync] != 0 {
		t.Fatalf("fleet journaled %d sync events, want none", counts[journal.KindSync])
	}
	workers := map[int]bool{}
	for _, ev := range events {
		workers[ev.Worker] = true
	}
	if !workers[0] || !workers[1] {
		t.Fatalf("journal missing a worker's events: %v", workers)
	}
}

// TestFleetJournalChaosForensics injects a panic and a wedge and checks
// the forensic record: recycle and wedge events on the stream,
// quarantine events for the poison findings, and a flight-recorder dump
// next to each quarantined input.
func TestFleetJournalChaosForensics(t *testing.T) {
	dir := t.TempDir()
	w := openJournalT(t, dir)
	opts := fleetOpts(2)
	opts.Journal = w
	opts.Watchdog = 250 * time.Millisecond
	opts.Chaos = func(worker, gen int, execs int64) fleet.ChaosAction {
		switch {
		case worker == 1 && gen == 0 && execs >= 3000:
			return fleet.ChaosPanic
		case worker == 0 && gen == 0 && execs >= 9000:
			return fleet.ChaosWedge
		}
		return fleet.ChaosNone
	}
	res := runFleet(t, dir, opts)
	if res.Interrupted {
		t.Fatal("chaos fleet interrupted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("chaos produced no quarantine findings")
	}

	events, diag, err := journal.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !diag.OK() {
		t.Fatalf("chaos journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
	counts := journal.KindCounts(events)
	if counts[journal.KindRecycle] == 0 {
		t.Fatalf("no recycle events after worker restarts: %v", counts)
	}
	if counts[journal.KindWedge] == 0 {
		t.Fatalf("no wedge event after watchdog fired: %v", counts)
	}
	if counts[journal.KindQuarantine] != len(res.Quarantined) {
		t.Fatalf("%d quarantine events for %d quarantined findings", counts[journal.KindQuarantine], len(res.Quarantined))
	}
	for _, p := range res.Quarantined {
		name := journal.SanitizeName(fmt.Sprintf("poison-w%d-%s", p.Worker, journal.SanitizeName(p.Msg)))
		dump := filepath.Join(dir, "journal", journal.FlightDir, name+".jsonl")
		if _, err := os.Stat(dump); err != nil {
			t.Errorf("quarantined finding (worker %d, %q) has no flight dump: %v", p.Worker, p.Msg, err)
		}
	}
}

// journalCounts closes w and returns the journal's event counts per
// kind, after checking the stream is gapless and schema-clean.
func journalCounts(t *testing.T, dir string, w *journal.Writer) map[string]int {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, diag, err := journal.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !diag.OK() {
		t.Fatalf("journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
	return journal.KindCounts(events)
}

// cleanJournalCounts runs an uninterrupted, fault-free journaled fleet
// and returns its journal's event counts.
func cleanJournalCounts(t *testing.T) map[string]int {
	t.Helper()
	dir := t.TempDir()
	opts := fleetOpts(2)
	opts.Journal = openJournalT(t, dir)
	if res := runFleet(t, dir, opts); res.Interrupted {
		t.Fatal("clean fleet interrupted")
	}
	return journalCounts(t, dir, opts.Journal)
}

// TestFleetJournalChaosCounts: a worker restarted after a panic replays
// from its checkpoint and re-emits the events it wrote past it, so the
// journal must hold each of them once. The chaos fleet's journal counts
// the clean fleet's events plus one quarantine and one recycle event
// per injected panic.
func TestFleetJournalChaosCounts(t *testing.T) {
	want := cleanJournalCounts(t)
	want[journal.KindQuarantine] += 2
	want[journal.KindRecycle] += 2

	dir := t.TempDir()
	opts := fleetOpts(2)
	opts.Journal = openJournalT(t, dir)
	opts.Chaos = func(worker, gen int, execs int64) fleet.ChaosAction {
		if gen == 0 && execs >= 3000+4000*int64(worker) {
			return fleet.ChaosPanic
		}
		return fleet.ChaosNone
	}
	res := runFleet(t, dir, opts)
	if res.Interrupted || res.Restarts != 2 {
		t.Fatalf("chaos fleet: interrupted=%v restarts=%d, want a finished fleet with 2 restarts", res.Interrupted, res.Restarts)
	}
	if got := journalCounts(t, dir, opts.Journal); !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos fleet journal counts %v, want %v", got, want)
	}
}

// TestFleetJournalResumeCounts stands in for a hard kill: the fleet is
// stopped, each worker's newest checkpoint is removed, and the resumed
// workers replay from their older ones past events already journaled.
// The journal must count exactly the uninterrupted fleet's events.
func TestFleetJournalResumeCounts(t *testing.T) {
	want := cleanJournalCounts(t)

	dir := t.TempDir()
	opts := fleetOpts(2)
	opts.Journal = openJournalT(t, dir)
	opts.StopAfter = testStop
	if res := runFleet(t, dir, opts); !res.Interrupted {
		t.Fatal("StopAfter did not interrupt the fleet")
	}
	if err := opts.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ckpts, err := filepath.Glob(filepath.Join(fleet.WorkerDir(dir, i), "checkpoints", "*.pafc"))
		if err != nil || len(ckpts) < 2 {
			t.Fatalf("worker %d keeps checkpoints %v (%v), want at least 2", i, ckpts, err)
		}
		sort.Strings(ckpts)
		if err := os.Remove(ckpts[len(ckpts)-1]); err != nil {
			t.Fatal(err)
		}
	}

	ropts := fleetOpts(2)
	ropts.Journal = openJournalT(t, dir)
	if res := resumeFleet(t, dir, ropts); res.Interrupted {
		t.Fatal("resumed fleet interrupted again")
	}
	if got := journalCounts(t, dir, ropts.Journal); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed fleet journal counts %v, want %v", got, want)
	}
}
