// The fleet boundary hook: heartbeat, chaos injection, stale-attempt
// abandonment and paced telemetry. Runs on each worker's own goroutine
// at every queue-entry boundary, before the campaign runner's
// checkpoint logic (campaign.Config.Boundary). It reads the fuzzer and
// never changes it, so each worker stays exactly the single campaign
// its seed names.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/fuzz"
)

// boundary is the fleet's campaign.Config.Boundary hook for one worker
// attempt. Returning false abandons the attempt without a checkpoint.
func (s *Supervisor) boundary(w *worker, gen int, f *fuzz.Fuzzer) bool {
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

	s.mu.Lock()
	stale := w.gen != gen
	s.mu.Unlock()
	if stale {
		// Abandoned: a replacement generation owns the state dir; do not
		// checkpoint over it.
		return false
	}
	// Telemetry at a paced cadence, not every boundary — the aggregate
	// publish takes the supervisor lock.
	if execs := f.Execs(); execs-w.lastTelem.Load() >= 1000 {
		w.lastTelem.Store(execs)
		s.publishWorkerTelemetry(w, gen, f)
	}
	return true
}

// wedgeBlock simulates a hung worker: it blocks until the watchdog
// abandons this generation (or the fleet stops). On return the caller's
// stale-generation check ends the attempt.
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

// publishWorkerTelemetry pushes this worker attempt's counters and a
// fleet aggregate to the recorder. Observation only, at the boundary
// hook's paced cadence and once more when the attempt's runner returns.
// An abandoned generation publishes nothing, so its counters never
// overwrite its replacement's.
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
