// The fleet boundary hook: heartbeat, chaos injection, stale-attempt
// abandonment, and the deterministic corpus-sync barrier. Runs on each
// worker's own goroutine at every queue-entry boundary, before the
// campaign runner's checkpoint logic (campaign.Config.Boundary), which
// yields the ordering invariant the resume derivations rest on: a
// checkpoint at execs X implies every sync epoch up to floor(X /
// SyncEvery) has completed — publication persisted, imports applied —
// because crossing an epoch boundary always syncs before the runner
// gets a chance to checkpoint.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/fuzz"
	"repro/internal/journal"
)

// syncState is one attempt's local sync bookkeeping, derived on resume
// (never persisted in the worker checkpoint):
//
//	lastSynced = floor(checkpointExecs / SyncEvery)
//	pubIndex   = publication watermark of epoch lastSynced (or the
//	             seeded queue length before any sync)
type syncState struct {
	lastSynced int
	pubIndex   int
}

// boundary is the fleet's campaign.Config.Boundary hook for one worker
// attempt. Returning false abandons the attempt without a checkpoint.
func (s *Supervisor) boundary(w *worker, gen int, st *syncState, f *fuzz.Fuzzer) bool {
	// Heartbeat for the watchdog, and the poison-input stash the
	// watchdog quarantines if this boundary never returns.
	w.beat.Store(time.Now().UnixNano())
	w.beatExecs.Store(f.Execs())
	if in := f.CurrentInput(); in != nil {
		w.curInput.Store(&in)
	}

	if chaos := s.opts.Chaos; chaos != nil {
		switch chaos(w.id, gen, f.Execs()) {
		case ChaosPanic:
			panic(fmt.Sprintf("fleet: injected worker panic (worker %d gen %d at %d execs)", w.id, gen, f.Execs()))
		case ChaosWedge:
			s.wedgeBlock(w, gen)
		}
	}

	return s.syncPoint(w, gen, st, f)
}

// wedgeBlock simulates a hung worker: it blocks until the watchdog
// abandons this generation (or the fleet stops). On return the caller
// proceeds to syncPoint, whose stale-generation check ends the attempt.
func (s *Supervisor) wedgeBlock(w *worker, gen int) {
	s.mu.Lock()
	if w.gen != gen {
		s.mu.Unlock()
		return
	}
	abandon := w.abandon
	s.mu.Unlock()
	select {
	case <-abandon:
	case <-s.stopCh:
	}
}

// syncPoint applies the stale-generation and stop checks, then runs as
// many sync epochs as the worker has crossed. The loop matters:
// imports consume executions (AddSeed executes each imported input, by
// design — import cost is part of the deterministic exec budget), so a
// large import can push the counter across the next epoch boundary,
// which must sync too before the runner may checkpoint.
func (s *Supervisor) syncPoint(w *worker, gen int, st *syncState, f *fuzz.Fuzzer) bool {
	S := s.opts.SyncEvery
	for {
		s.mu.Lock()
		if w.gen != gen {
			// Abandoned: a replacement generation owns the state dir; do
			// not checkpoint over it.
			s.mu.Unlock()
			return false
		}
		if s.stopping {
			// Safe to let the runner write the shutdown checkpoint only
			// when no sync is pending — a checkpoint past an unsynced
			// epoch boundary would violate the resume derivation.
			pending := S > 0 && int(f.Execs()/S) > st.lastSynced
			s.mu.Unlock()
			return !pending
		}
		if S <= 0 || int(f.Execs()/S) <= st.lastSynced {
			s.mu.Unlock()
			// Telemetry at a paced cadence, not every boundary — the
			// aggregate publish takes the supervisor lock.
			if execs := f.Execs(); execs-w.lastTelem.Load() >= 1000 {
				w.lastTelem.Store(execs)
				s.publishWorkerTelemetry(w, gen, f)
			}
			return true
		}
		e := int(f.Execs() / S)

		// Publish the entries added since the previous sync. A replaying
		// attempt finds its (deterministic, identical) publication already
		// on the board and reuses it.
		pub := s.board.get(w.id, e)
		if pub == nil {
			pub = s.board.add(w.id, e, f.QueueInputsFrom(st.pubIndex))
			if err := s.persistManifestLocked(); err != nil {
				// Durability degrades (a crash now could forget this pub);
				// the sync itself proceeds — in-memory state is consistent.
				s.logf("fleet: manifest at worker %d epoch %d: %v", w.id, e, err)
			}
		}
		if e > w.arrived {
			w.arrived = e
		}
		s.cond.Broadcast()

		// Park until every live worker has arrived at (or passed) this
		// epoch. Parked workers are watchdog-exempt: waiting on a slow
		// peer is not a wedge.
		w.parked.Store(true)
		for !s.releasedLocked(e) && !s.stopping && w.gen == gen {
			s.cond.Wait()
		}
		w.parked.Store(false)
		if w.gen != gen {
			s.mu.Unlock()
			return false
		}
		if s.stopping {
			// Imports not applied; abandon to the last checkpoint, which
			// predates this epoch and will replay the sync on resume.
			s.mu.Unlock()
			return false
		}
		imports := s.board.imports(w.id, st.lastSynced, e)
		s.mu.Unlock()

		// Import and re-calibrate outside the lock: AddSeed executes each
		// input, dedups by novelty, and enqueues only what this worker's
		// corpus lacks.
		for _, in := range imports {
			w.beat.Store(time.Now().UnixNano())
			f.AddSeed(in)
		}

		s.mu.Lock()
		st.lastSynced = e
		st.pubIndex = f.QueueLen()
		pub.QLen = st.pubIndex
		err := s.persistManifestLocked()
		s.emit(journal.Event{
			Kind: journal.KindSync, Worker: w.id, Gen: gen,
			Execs: f.Execs(), Epoch: e,
			Published: len(pub.Inputs), Imported: len(imports),
		})
		s.mu.Unlock()
		if err != nil {
			s.logf("fleet: manifest after worker %d sync %d: %v", w.id, e, err)
		}
		// Loop: imports may have crossed the next epoch boundary.
	}
}

// releasedLocked reports whether the barrier at epoch e is open: every
// worker has either arrived at (or passed) e, or permanently left the
// sync protocol (done before reaching e, or retired). Workers mid-
// restart hold the barrier — their replay arrives deterministically.
func (s *Supervisor) releasedLocked(e int) bool {
	for _, w := range s.workers {
		if w.arrived >= e {
			continue
		}
		if w.state == stDone || w.state == stRetired || w.state == stStopped {
			continue
		}
		return false
	}
	return true
}

// publishWorkerTelemetry pushes this worker attempt's counters and a
// fleet aggregate to the recorder. Observation only, at sync-point
// cadence and once more when the attempt's runner returns. An abandoned
// generation publishes nothing, so its counters never overwrite its
// replacement's.
func (s *Supervisor) publishWorkerTelemetry(w *worker, gen int, f *fuzz.Fuzzer) {
	rec := s.opts.Telemetry
	if rec == nil {
		return
	}
	c := f.Counters()
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.gen != gen {
		return
	}
	rec.PublishWorker(w.id, c)
	s.publishAggregateLocked(nil)
}

// publishAggregateLocked publishes the fleet-wide snapshot: summed
// worker counters plus the supervision counters. Run's closing publish
// passes the merged report, whose deduplicated unique crash and bug
// counts replace the aggregate's per-worker lower bounds.
func (s *Supervisor) publishAggregateLocked(merged *fuzz.Report) {
	rec := s.opts.Telemetry
	if rec == nil {
		return
	}
	agg := rec.AggregateWorkers()
	agg.FleetWorkers = int64(len(s.workers))
	var active, retired int64
	for _, w := range s.workers {
		switch w.state {
		case stRunning, stBackoff:
			active++
		case stRetired:
			retired++
		}
	}
	agg.FleetActive = active
	agg.FleetRetired = retired
	agg.FleetRestarts = int64(s.restarts)
	agg.FleetWedges = int64(s.wedges)
	agg.FleetQuarantined = int64(len(s.quar))
	if merged != nil {
		agg.UniqueCrashes = int64(len(merged.Crashes))
		agg.UniqueBugs = int64(len(merged.Bugs))
	}
	rec.Publish(agg)
}
