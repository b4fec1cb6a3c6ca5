package fleet_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
