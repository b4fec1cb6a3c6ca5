// Campaign snapshot and restore: the exported state hooks behind the
// checkpoint/resume subsystem (package campaign). A Snapshot captures
// everything a campaign needs to continue deterministically — queue
// entries with their metadata, virgin maps, crash and bug dedup state,
// the auto-dictionary, stats, the random generator's state, and
// the fuzz loop's mid-cycle position. Restore rebuilds a fuzzer from a
// snapshot such that continuing it reproduces, execution for execution,
// what an uninterrupted campaign would have done: derived state
// (top-rated champions, power-schedule running sums) is re-calibrated
// from the queue rather than trusted from the snapshot.
package fuzz

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/vm"
)

// SnapEntry is the serialized form of a queue Entry. IDs are implicit:
// an entry's ID is its index in the snapshot's Entries slice, which
// preserves queue order.
type SnapEntry struct {
	Data      []byte
	Cov       []uint32
	Steps     int64
	Depth     int
	FoundAt   int64
	Handicap  int
	Favored   bool
	WasFuzzed bool
	IsSeed    bool
	// Provenance: the parent entry index (-1 for seeds), the mutation
	// stage that produced the entry, and the map cells it discovered
	// first. Old checkpoints gob-decode Parent as 0 and Stage/FirstCells
	// as zero values; restore treats Parent 0 on a seed entry as
	// pre-provenance data and rewrites it to -1. FirstCells is persisted
	// for checkpoint readers (paprof -genealogy works from the sealed
	// file alone) but recomputed on restore, where replaying the queue
	// rebuilds the identical sets.
	Parent     int
	Stage      uint8
	FirstCells []uint32
}

// SnapCrash is the serialized form of one crash-dedup record. Hash
// carries the stack-hash key for crash records; Key carries the
// ground-truth bug key for bug records.
type SnapCrash struct {
	Hash    uint64
	Key     string
	Crash   *vm.Crash
	Input   []byte
	Count   int
	FoundAt int64
}

// Snapshot is a complete, serializable image of a campaign at a safe
// point. All slices are canonically ordered (queue order; crashes by
// hash; bugs by key), so encoding the same state twice yields identical
// bytes — the property the checkpoint determinism tests rely on.
type Snapshot struct {
	Entries     []SnapEntry
	Virgin      []coverage.VirginCell
	CrashVirgin []coverage.VirginCell
	Crashes     []SnapCrash
	Bugs        []SnapCrash
	Faults      []InternalFault
	Stats       Stats
	Dict        [][]byte
	// RNGState is the random generator's ring (rngLen words) and
	// RNGDraws its draw count; together they are the stream position.
	// Checkpoints from before the ring was stored decode with no
	// RNGState, and Restore refuses them with ErrRNGState.
	RNGState []uint64
	RNGDraws uint64

	// Fuzz-loop position (see Fuzzer.midCycle and friends).
	PendingFavored int
	MidCycle       bool
	NextIndex      int
	CycleLen       int

	// JournalSeq is the campaign's emitted-event count at snapshot
	// time. The counter advances whether or not a journal writer is
	// attached, so this field is identical with journaling on or off;
	// on restore it tells the journal where to truncate so the resumed
	// replay re-emits a byte-identical tail. Old checkpoints decode it
	// as 0 (the journal then restarts its numbering, still gapless).
	JournalSeq uint64
	// Finished records that the campaign ran to its budget and emitted
	// its finish event, so Fuzz on the restored campaign emits no
	// second one unless it is given more budget. Old checkpoints decode
	// it as false.
	Finished bool
}

// VirginCells returns the campaign's consumed virgin-map cells — every
// coverage cell any recorded execution ever set, with the observed hit
// buckets — for coverage cartography. Read-only; call at a safe point
// (after Fuzz returns or between queue entries).
func (f *Fuzzer) VirginCells() []coverage.VirginCell { return f.virgin.Cells() }

// Snapshot captures the campaign state. It must be called at a safe
// point: between queue entries (the checkpoint hook) or while the
// fuzzer is not running.
func (f *Fuzzer) Snapshot() *Snapshot {
	s := &Snapshot{
		Entries:        make([]SnapEntry, len(f.queue)),
		Virgin:         f.virgin.Cells(),
		CrashVirgin:    f.crashVirgin.Cells(),
		Faults:         append([]InternalFault(nil), f.faults...),
		Stats:          f.stats,
		Dict:           append([][]byte(nil), f.mut.dict...),
		RNGState:       f.rng.state(),
		RNGDraws:       f.rng.draws,
		PendingFavored: f.pendingFavored,
		MidCycle:       f.midCycle,
		NextIndex:      f.qi,
		CycleLen:       f.qlen,
		JournalSeq:     f.events,
		Finished:       f.finished,
	}
	for i, e := range f.queue {
		s.Entries[i] = SnapEntry{
			Data:       e.Data,
			Cov:        e.Cov,
			Steps:      e.Steps,
			Depth:      e.Depth,
			FoundAt:    e.FoundAt,
			Handicap:   e.Handicap,
			Favored:    e.Favored,
			WasFuzzed:  e.WasFuzzed,
			IsSeed:     e.IsSeed,
			Parent:     e.Parent,
			Stage:      e.Stage,
			FirstCells: e.FirstCells,
		}
	}
	// A checkpoint claims everything up to JournalSeq is settled; flush
	// so the on-disk journal is at least that current before the
	// checkpoint that references it lands.
	if f.jrnl != nil {
		f.jrnl.Flush()
	}
	for h, rec := range f.crashes {
		s.Crashes = append(s.Crashes, SnapCrash{Hash: h, Crash: rec.Crash, Input: rec.Input, Count: rec.Count, FoundAt: rec.FoundAt})
	}
	sort.Slice(s.Crashes, func(i, j int) bool { return s.Crashes[i].Hash < s.Crashes[j].Hash })
	for k, rec := range f.bugs {
		s.Bugs = append(s.Bugs, SnapCrash{Key: k, Crash: rec.Crash, Input: rec.Input, Count: rec.Count, FoundAt: rec.FoundAt})
	}
	sort.Slice(s.Bugs, func(i, j int) bool { return s.Bugs[i].Key < s.Bugs[j].Key })
	return s
}

// ErrRNGState reports a snapshot without a usable random-generator
// state: one written before snapshots carried the generator's ring
// (those stored only a draw count, which Restore replayed draw by
// draw), or one whose ring is not rngLen words. Such a campaign cannot
// be resumed.
var ErrRNGState = errors.New("fuzz: snapshot has no usable random-generator state (written by an older build, or corrupt); the campaign cannot be resumed")

// Validate checks the invariants a snapshot must satisfy on its own,
// whatever program it is restored onto: a generator ring of rngLen
// words (ErrRNGState) and a cycle position inside the queue. Restore calls it first, so no
// decoded count bounds a loop.
func (s *Snapshot) Validate() error {
	if len(s.RNGState) != rngLen {
		return fmt.Errorf("%w: %d state words, want %d", ErrRNGState, len(s.RNGState), rngLen)
	}
	if s.CycleLen > len(s.Entries) || s.NextIndex > s.CycleLen || s.NextIndex < 0 {
		return fmt.Errorf("fuzz: snapshot cycle position %d/%d inconsistent with queue of %d", s.NextIndex, s.CycleLen, len(s.Entries))
	}
	return nil
}

// Restore builds a fuzzer over prog from a snapshot. opts must match
// the options of the campaign that produced the snapshot (same seed,
// feedback, map size, profile, limits); the campaign checkpoint layer
// stores and validates that metadata. Derived state — top-rated
// champions and the power-schedule sums — is re-calibrated from the
// restored queue, and the random generator's ring is copied back, so
// continuing the fuzzer reproduces an uninterrupted campaign exactly.
func Restore(prog *cfg.Program, opts Options, snap *Snapshot) (*Fuzzer, error) {
	if snap == nil {
		return nil, fmt.Errorf("fuzz: nil snapshot")
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	f, err := New(prog, opts)
	if err != nil {
		return nil, err
	}
	if err := f.restore(snap); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *Fuzzer) restore(snap *Snapshot) error {
	mapSize := uint32(f.cov.Len())
	f.queue = make([]*Entry, 0, len(snap.Entries))
	f.topRated = make(map[uint32]*Entry)
	f.sumSteps, f.sumCov = 0, 0
	// maxDepth is derived state, recomputed from the queue below.
	f.maxDepth = 0
	for i, se := range snap.Entries {
		if len(se.Data) > maxInputLen {
			return fmt.Errorf("fuzz: snapshot entry %d is %d bytes, exceeds input cap %d", i, len(se.Data), maxInputLen)
		}
		for _, idx := range se.Cov {
			if idx >= mapSize {
				return fmt.Errorf("fuzz: snapshot entry %d covers index %d outside map of size %d", i, idx, mapSize)
			}
		}
		parent := se.Parent
		if se.IsSeed && parent == 0 {
			// Pre-provenance checkpoints gob-decode Parent as 0; a seed
			// entry's parent is by definition -1.
			parent = -1
		}
		e := &Entry{
			ID:        i,
			Data:      append([]byte(nil), se.Data...),
			Cov:       append([]uint32(nil), se.Cov...),
			Steps:     se.Steps,
			Depth:     se.Depth,
			FoundAt:   se.FoundAt,
			Handicap:  se.Handicap,
			Favored:   se.Favored,
			WasFuzzed: se.WasFuzzed,
			IsSeed:    se.IsSeed,
			Parent:    parent,
			Stage:     se.Stage,
			// FirstCells deliberately not copied: updateTopRated below
			// recomputes the identical discovery sets from queue order.
		}
		f.queue = append(f.queue, e)
		f.sumSteps += e.Steps
		f.sumCov += int64(len(e.Cov))
		if e.Depth > f.maxDepth {
			f.maxDepth = e.Depth
		}
		// Replaying champion updates in queue order reproduces the
		// incremental top-rated map exactly (ties keep the earlier
		// entry, as they did originally).
		f.updateTopRated(e)
	}
	if err := f.virgin.SetCells(snap.Virgin); err != nil {
		return err
	}
	if err := f.crashVirgin.SetCells(snap.CrashVirgin); err != nil {
		return err
	}
	f.crashes = make(map[uint64]*CrashRec, len(snap.Crashes))
	for _, sc := range snap.Crashes {
		if sc.Crash == nil {
			return fmt.Errorf("fuzz: snapshot crash record %#x has no report", sc.Hash)
		}
		f.crashes[sc.Hash] = &CrashRec{Crash: sc.Crash, Input: sc.Input, Count: sc.Count, FoundAt: sc.FoundAt}
	}
	f.bugs = make(map[string]*CrashRec, len(snap.Bugs))
	for _, sc := range snap.Bugs {
		if sc.Crash == nil {
			return fmt.Errorf("fuzz: snapshot bug record %q has no report", sc.Key)
		}
		f.bugs[sc.Key] = &CrashRec{Crash: sc.Crash, Input: sc.Input, Count: sc.Count, FoundAt: sc.FoundAt}
	}
	f.faults = append([]InternalFault(nil), snap.Faults...)
	f.stats = snap.Stats

	// The cmplog-derived auto-dictionary is restored wholesale: token order matters because havoc picks
	// tokens by index.
	f.mut.dict = nil
	f.dictSeen = make(map[string]bool, len(snap.Dict))
	for _, tok := range snap.Dict {
		t := append([]byte(nil), tok...)
		f.mut.dict = append(f.mut.dict, t)
		f.dictSeen[string(t)] = true
	}

	f.pendingFavored = snap.PendingFavored
	f.midCycle = snap.MidCycle
	f.qi, f.qlen = snap.NextIndex, snap.CycleLen

	f.rng.restore(snap.RNGState, snap.RNGDraws)
	// Journal resume: restore the emitted-event counter and truncate
	// the journal back to it, so the replayed executions re-emit an
	// identical tail (gapless, byte-for-byte). A fleet-shared journal
	// is never truncated — the supervisor owns the stream and other
	// workers' events must survive this worker's restore.
	f.events = snap.JournalSeq
	f.finished = snap.Finished
	if f.jrnl != nil && !f.opts.JournalShared {
		if err := f.jrnl.TruncateTo(f.events); err != nil {
			return fmt.Errorf("fuzz: truncating journal to seq %d: %w", f.events, err)
		}
	}
	// The CGT patch plan is not checkpointed: it is a pure function of
	// the virgin map, so a restored campaign replans from the restored
	// virgin state (the same boundary-determinism rule as cycle starts).
	f.replanCGT()
	return nil
}
