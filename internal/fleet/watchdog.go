// The fleet watchdog: a single goroutine that scans worker heartbeats
// on a fraction of the wedge deadline and recycles workers that have
// stopped reaching queue-entry boundaries. Goroutines cannot be killed
// in Go, so "recycling" is abandonment: the watchdog bumps the worker's
// generation — the stale attempt's next boundary check makes it exit
// without checkpointing — releases any chaos wedge block, quarantines
// the input the worker was executing, and wakes the manage loop to
// restart from the last checkpoint. A genuinely unbounded execution
// that never returns to a boundary leaks its goroutine; the fleet
// still makes progress on the replacement.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/fuzz"
	"repro/internal/journal"
)

// startWatchdog launches the heartbeat scanner (no-op when the
// watchdog deadline is zero).
func (s *Supervisor) startWatchdog() {
	if s.opts.Watchdog <= 0 {
		return
	}
	tick := s.opts.Watchdog / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	s.watchStop = make(chan struct{})
	s.watchDone = make(chan struct{})
	go func() {
		defer close(s.watchDone)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-s.watchStop:
				return
			case <-t.C:
			}
			deadline := time.Now().Add(-s.opts.Watchdog).UnixNano()
			s.mu.Lock()
			for _, w := range s.workers {
				if w.state != stRunning {
					continue
				}
				// beat == 0: the attempt is still starting up (restoring its
				// checkpoint), a phase whose length scales with prior
				// campaign progress — exempt. Execution itself is bounded by
				// per-run step limits, so a wedge can only appear between
				// boundaries, where the beat is armed.
				if beat := w.beat.Load(); beat > 0 && beat < deadline {
					s.declareWedgedLocked(w)
				}
			}
			s.mu.Unlock()
		}
	}()
}

func (s *Supervisor) stopWatchdog() {
	if s.watchStop == nil {
		return
	}
	close(s.watchStop)
	<-s.watchDone
	s.watchStop, s.watchDone = nil, nil
}

// declareWedgedLocked recycles a wedged worker: quarantine the input it
// was last dispatched, abandon the attempt's generation, and wake its
// manage loop. The manage loop applies failure accounting and backoff.
func (s *Supervisor) declareWedgedLocked(w *worker) {
	s.wedges++
	var input []byte
	if p := w.curInput.Load(); p != nil {
		input = append([]byte(nil), *p...)
	}
	s.emit(journal.Event{
		Kind: journal.KindWedge, Worker: w.id, Gen: w.gen,
		Execs: w.beatExecs.Load(),
		Msg:   fmt.Sprintf("no boundary heartbeat for %v", s.opts.Watchdog),
	})
	s.addPoisonLocked(fuzz.PoisonRec{
		Worker: w.id,
		Gen:    w.gen,
		Msg:    fmt.Sprintf("fleet: watchdog: no boundary heartbeat for %v", s.opts.Watchdog),
		Input:  input,
		Execs:  w.beatExecs.Load(),
		Count:  1,
	})
	w.gen++
	if w.abandon != nil {
		close(w.abandon)
		w.abandon = nil
	}
	if w.wedged != nil {
		close(w.wedged)
		w.wedged = nil
	}
	s.logf("fleet: worker %d wedged (no heartbeat for %v); restarting from last checkpoint", w.id, s.opts.Watchdog)
}
