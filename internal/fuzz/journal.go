// Journal emission: the fuzzer's side of the campaign forensics layer.
// Events are emitted at the same deterministic points whether or not a
// writer is attached — the emitted-event counter (f.events) always
// advances, only the I/O is conditional — so attaching a journal can
// never change campaign behaviour, and a checkpoint's JournalSeq lets
// resume truncate the journal to exactly the events the restored state
// has "already emitted" and replay the rest byte-identically.
package fuzz

import (
	"fmt"

	"repro/internal/journal"
)

// emit records one campaign lifecycle event. The first event of a
// fresh campaign is preceded by a synthetic start event identifying
// the campaign (feedback, engine, seed); resumed campaigns restore
// f.events > 0 and never re-emit it.
func (f *Fuzzer) emit(ev journal.Event) {
	if f.events == 0 {
		f.events++
		f.write(journal.Event{
			Kind:     journal.KindStart,
			Feedback: f.opts.Feedback.String(),
			Engine:   f.EngineName(),
			Seed:     f.opts.Seed,
		})
	}
	f.events++
	f.write(ev)
}

// write tags and forwards one event to the attached writer, if any.
func (f *Fuzzer) write(ev journal.Event) {
	if f.jrnl == nil {
		return
	}
	ev.Worker = f.opts.JournalWorker
	ev.Gen = f.opts.JournalGen
	ev.Execs = f.stats.Execs
	f.jrnl.Emit(ev)
}

// JournalEvents returns the campaign's emitted-event counter — the
// value checkpointed as Snapshot.JournalSeq.
func (f *Fuzzer) JournalEvents() uint64 { return f.events }

// CorpusProvenance renders the queue's provenance metadata — parent
// edges, discovery stage, exec index, first-discovered cells — as the
// journal package's shared vocabulary. Reports carry it so paprof,
// evalharness, and the fleet merge agree on one representation.
func (f *Fuzzer) CorpusProvenance() []journal.CorpusMeta {
	out := make([]journal.CorpusMeta, 0, len(f.queue))
	for _, e := range f.queue {
		out = append(out, journal.CorpusMeta{
			Worker:     f.opts.JournalWorker,
			ID:         e.ID,
			Parent:     e.Parent,
			Stage:      stageName(e.Stage),
			Depth:      e.Depth,
			Steps:      e.Steps,
			FoundAt:    e.FoundAt,
			Len:        len(e.Data),
			CovCount:   len(e.Cov),
			FirstCells: append([]uint32(nil), e.FirstCells...),
		})
	}
	return out
}

// SnapshotProvenance renders a checkpoint's corpus provenance without
// restoring the campaign — what `paprof -genealogy` reads from sealed
// checkpoints alone. Entry IDs are snapshot indices; pre-provenance
// checkpoints (Parent gob-decoded as 0 on seed entries) get the same
// seed rewrite Restore applies.
func SnapshotProvenance(snap *Snapshot, worker int) []journal.CorpusMeta {
	if snap == nil {
		return nil
	}
	out := make([]journal.CorpusMeta, 0, len(snap.Entries))
	for i, se := range snap.Entries {
		parent := se.Parent
		if se.IsSeed && parent == 0 {
			parent = -1
		}
		out = append(out, journal.CorpusMeta{
			Worker:     worker,
			ID:         i,
			Parent:     parent,
			Stage:      stageName(se.Stage),
			Depth:      se.Depth,
			Steps:      se.Steps,
			FoundAt:    se.FoundAt,
			Len:        len(se.Data),
			CovCount:   len(se.Cov),
			FirstCells: append([]uint32(nil), se.FirstCells...),
		})
	}
	return out
}

// crashHashName formats a stack hash for journal events and flight
// dump filenames.
func crashHashName(h uint64) string { return fmt.Sprintf("%016x", h) }
