package campaign

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/telemetry"
)

// Config tunes a Runner.
type Config struct {
	// FS is the filesystem used for all state (default OSFS).
	FS FS
	// Interval is the minimum number of executions between periodic
	// checkpoints (default 25000). Checkpoints land on the first
	// queue-entry boundary past each interval, so they never perturb
	// the campaign's execution sequence.
	Interval int64
	// Keep is how many checkpoints to retain (default 2: the newest
	// plus one fallback in case the newest is torn by a crash).
	Keep int
	// Log, when non-nil, receives warnings (skipped checkpoints, failed
	// writes). Checkpoint failures are reported here and the campaign
	// continues; durability degrades, fuzzing does not stop.
	Log io.Writer
	// StopAfter, when positive, simulates an interruption: the runner
	// behaves as if RequestStop were called once the execution counter
	// reaches it. The fault-injection and determinism tests use it to
	// interrupt campaigns at exact, reproducible points.
	StopAfter int64
	// Boundary, when non-nil, runs at every queue-entry boundary before
	// the runner's own checkpoint logic. Returning false stops the
	// campaign immediately WITHOUT writing a checkpoint — the fleet
	// supervisor uses this to abandon a stale worker attempt (its
	// replacement owns the state directory now).
	Boundary func(*fuzz.Fuzzer) bool
	// Exit is called to terminate the process on a forced (second)
	// signal. Defaults to os.Exit; tests inject a recorder.
	Exit func(code int)
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = OSFS{}
	}
	if c.Interval <= 0 {
		c.Interval = 25000
	}
	if c.Keep <= 0 {
		c.Keep = 2
	}
	if c.Exit == nil {
		c.Exit = os.Exit
	}
	return c
}

// Runner drives one durable fuzzing campaign rooted at a state
// directory:
//
//	<dir>/checkpoints/ckpt-<execs>.pafc   sealed state snapshots
//	<dir>/crashes/<bug key>               first input per unique bug
//	<dir>/faults/<fault msg>              inputs that panicked the VM
type Runner struct {
	cfg  Config
	dir  string
	meta Meta
	f    *fuzz.Fuzzer

	lastCkpt int64
	stop     atomic.Bool
	signals  atomic.Int64
}

// NewRunner builds a runner over the state directory dir.
func NewRunner(dir string, cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults(), dir: dir}
}

// Fuzzer exposes the underlying campaign (nil before Start/Attach).
func (r *Runner) Fuzzer() *fuzz.Fuzzer { return r.f }

// RequestStop asks the campaign to shut down gracefully: at the next
// queue-entry boundary a final checkpoint is written and Run returns
// with interrupted=true. Safe to call from any goroutine (signal
// handlers).
func (r *Runner) RequestStop() { r.stop.Store(true) }

// Signal handles one delivered interrupt and is idempotent across
// repeats: the first call requests a graceful stop (final checkpoint at
// the next queue-entry boundary), the second forces immediate exit
// after a best-effort checkpoint, and further signals are no-ops (the
// exit is already in flight). The forced checkpoint may race the fuzz
// goroutine mid-mutation; that is safe by design — sealed checkpoints
// are checksummed, so a torn write is detected on resume and LoadLatest
// falls back to the previous good one. Safe to call from a signal
// handler goroutine.
func (r *Runner) Signal() {
	switch r.signals.Add(1) {
	case 1:
		r.RequestStop()
	case 2:
		func() {
			defer func() { recover() }() // state may be mid-mutation
			if r.f != nil {
				if err := r.checkpoint(); err != nil {
					r.logf("forced-exit checkpoint failed: %v", err)
				}
			}
		}()
		r.cfg.Exit(130)
	}
}

// Start begins a fresh campaign: builds the fuzzer, executes the seed
// corpus, and writes checkpoint zero so the campaign is resumable from
// the very beginning.
func (r *Runner) Start(prog *cfg.Program, opts fuzz.Options, meta Meta, seeds [][]byte) error {
	f, err := fuzz.New(prog, opts)
	if err != nil {
		return err
	}
	for _, s := range seeds {
		f.AddSeed(s)
	}
	r.f = f
	r.meta = meta
	if err := r.cfg.FS.MkdirAll(r.dir); err != nil {
		return err
	}
	if err := r.checkpoint(); err != nil {
		// The initial checkpoint is load-bearing: failing it means the
		// state dir is unusable, better to find out before fuzzing.
		return fmt.Errorf("campaign: initial checkpoint failed: %w", err)
	}
	return nil
}

// Attach resumes a campaign from a loaded checkpoint (see LoadLatest).
// opts must reproduce the original campaign's options; the caller
// derives them from ck.Meta.
func (r *Runner) Attach(prog *cfg.Program, opts fuzz.Options, ck *Checkpoint) error {
	f, err := fuzz.Restore(prog, opts, ck.Snap)
	if err != nil {
		return err
	}
	r.f = f
	r.meta = ck.Meta
	r.lastCkpt = ck.Snap.Stats.Execs
	return nil
}

// Run fuzzes until meta.Budget executions or a stop request, writing
// periodic checkpoints. On normal completion it returns the final
// report and persists a final checkpoint plus all crash inputs. When
// the boundary hook stops the campaign, even on the exec that reached
// the budget, it returns interrupted=true and a nil report and writes
// nothing more — the campaign continues via resume.
func (r *Runner) Run() (rep *fuzz.Report, interrupted bool, err error) {
	if r.f == nil {
		return nil, false, fmt.Errorf("campaign: Run before Start/Attach")
	}
	stopped := false
	r.f.SetCheckpointHook(func(f *fuzz.Fuzzer) bool {
		stopped = !r.hook(f)
		return !stopped
	})
	defer r.f.SetCheckpointHook(nil)
	r.f.Fuzz(r.meta.Budget)
	if stopped {
		// The hook wrote the shutdown checkpoint, or the Boundary gave
		// the state dir to someone else: either way, nothing to write.
		return nil, true, nil
	}
	rep = r.f.Report()
	if cerr := r.checkpoint(); cerr != nil {
		r.logf("final checkpoint failed: %v", cerr)
	}
	return rep, false, nil
}

// hook runs at every queue-entry boundary inside the fuzz loop — the
// deterministic safe points where full state can be captured.
func (r *Runner) hook(f *fuzz.Fuzzer) bool {
	if r.cfg.Boundary != nil && !r.cfg.Boundary(f) {
		// The supervisor abandoned this attempt (or wants an immediate
		// stop without persisting): no checkpoint, the state dir belongs
		// to someone else now.
		return false
	}
	if r.cfg.StopAfter > 0 && f.Execs() >= r.cfg.StopAfter {
		r.stop.Store(true)
	}
	if r.stop.Load() {
		if err := r.checkpoint(); err != nil {
			r.logf("shutdown checkpoint failed: %v", err)
		}
		return false
	}
	if f.Execs()-r.lastCkpt >= r.cfg.Interval {
		if err := r.checkpoint(); err != nil {
			// A failed periodic checkpoint costs durability, not the
			// campaign: keep fuzzing on the last good one.
			r.logf("checkpoint at %d execs failed: %v", f.Execs(), err)
		}
	}
	return true
}

// checkpoint snapshots the campaign, writes a sealed checkpoint, and
// persists any new crash/fault inputs.
func (r *Runner) checkpoint() error {
	if tel := r.f.Telemetry(); tel != nil {
		defer tel.StartSpan(telemetry.StageCheckpoint)()
	}
	snap := r.f.Snapshot()
	ck := &Checkpoint{Meta: r.meta, Snap: snap}
	if err := writeCheckpoint(r.cfg.FS, r.dir, ck, r.cfg.Keep); err != nil {
		return err
	}
	r.lastCkpt = snap.Stats.Execs
	if tel := r.f.Telemetry(); tel != nil {
		// Liveness for /healthz: a durable campaign that stops
		// checkpointing is unhealthy even while its exec counter moves.
		tel.NoteCheckpoint(snap.Stats.Execs)
	}
	r.writeFindings(snap)
	return nil
}

// writeFindings persists crash and internal-fault inputs from a
// snapshot, one file per unique key, skipping files already on disk.
// Failures are warnings: findings are also inside every checkpoint.
func (r *Runner) writeFindings(snap *fuzz.Snapshot) {
	if len(snap.Bugs) > 0 {
		dir := join(r.dir, "crashes")
		if err := r.cfg.FS.MkdirAll(dir); err != nil {
			r.logf("crashes dir: %v", err)
			return
		}
		for _, b := range snap.Bugs {
			if b.Input == nil {
				continue
			}
			path := join(dir, SanitizeName(b.Key))
			if exists(r.cfg.FS, path) {
				continue
			}
			if err := WriteFileAtomic(r.cfg.FS, path, b.Input); err != nil {
				r.logf("saving crash input %s: %v", b.Key, err)
			}
		}
	}
	if len(snap.Faults) > 0 {
		dir := join(r.dir, "faults")
		if err := r.cfg.FS.MkdirAll(dir); err != nil {
			r.logf("faults dir: %v", err)
			return
		}
		for _, ft := range snap.Faults {
			path := join(dir, SanitizeName(ft.Msg))
			if exists(r.cfg.FS, path) {
				continue
			}
			if err := WriteFileAtomic(r.cfg.FS, path, ft.Input); err != nil {
				r.logf("saving fault input: %v", err)
			}
		}
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, "campaign: "+format+"\n", args...)
	}
}

// WriteCrashInputs persists a finished report's unique crashing inputs
// under dir/crashes, named by triage (bug) key — the non-durable path
// pafuzz uses when no checkpointing is active.
func WriteCrashInputs(fs FS, dir string, rep *fuzz.Report) error {
	if rep == nil || len(rep.Bugs) == 0 {
		return nil
	}
	cdir := join(dir, "crashes")
	if err := fs.MkdirAll(cdir); err != nil {
		return err
	}
	var firstErr error
	for _, k := range rep.BugKeys() {
		rec := rep.Bugs[k]
		if rec == nil || rec.Input == nil {
			continue
		}
		path := join(cdir, SanitizeName(k))
		if exists(fs, path) {
			continue
		}
		if err := WriteFileAtomic(fs, path, rec.Input); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SanitizeName maps an arbitrary key (bug keys contain ':', fault
// messages contain spaces) to a safe filename.
func SanitizeName(key string) string {
	if key == "" {
		return "_"
	}
	out := make([]byte, 0, len(key))
	for i := 0; i < len(key) && i < 128; i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
