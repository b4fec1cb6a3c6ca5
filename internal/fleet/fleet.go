// Package fleet runs N independent fuzz.Fuzzer workers under one
// supervisor with full fault containment: a heartbeat watchdog that
// declares wedged workers and recycles them, crash-loop handling with
// exponential backoff and poison-input quarantine, and fleet-level
// checkpoint/resume composing the campaign package's per-worker
// snapshots with a fleet manifest.
//
// Determinism model: worker i is exactly the durable single campaign
// at seed WorkerSeed(seed, i) with the fleet's budget; workers share
// nothing but the supervisor, so a restarted or resumed worker replays
// its own checkpointed campaign and nothing else. The merged report is
// therefore a deterministic function of (seed, budget, workers) — as
// long as no worker is retired, retirement being the one
// wall-clock-driven (graceful-degradation) transition.
package fleet

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// ChaosAction is what the chaos hook may inject at a worker boundary.
type ChaosAction int

// Chaos actions.
const (
	// ChaosNone injects nothing.
	ChaosNone ChaosAction = iota
	// ChaosPanic panics on the worker goroutine — a failure the
	// fuzzer's own per-execution quarantine cannot contain, modeling a
	// corrupted worker.
	ChaosPanic
	// ChaosWedge blocks the worker until the watchdog abandons it,
	// modeling a hung execution.
	ChaosWedge
)

// Options tunes a fleet Supervisor.
type Options struct {
	// Workers is the number of parallel fuzzing workers (default 2).
	Workers int
	// SyncEvery is ignored: workers run independently.
	//
	// Deprecated: corpus sync is gone; the field stays until the
	// benchmark stops setting it.
	SyncEvery int64
	// Watchdog is the wall-clock deadline after which a worker that has
	// not reached a queue-entry boundary is declared wedged and
	// recycled. 0 disables the watchdog.
	Watchdog time.Duration
	// MaxRestarts is how many consecutive failures (panics or wedges
	// without durable progress in between) a worker survives before it
	// is retired (default 3).
	MaxRestarts int
	// CkptEvery is each worker's periodic checkpoint interval in execs
	// (campaign.Config.Interval; default 25000).
	CkptEvery int64
	// Keep is per-worker checkpoint retention (default 2).
	Keep int
	// FS is the filesystem for all fleet state (default campaign.OSFS).
	FS campaign.FS
	// Log receives supervisor warnings and lifecycle notes.
	Log io.Writer
	// Telemetry, when non-nil, receives per-worker snapshots
	// (PublishWorker) and fleet aggregates (Publish); its collector
	// renders them as fuzzer_stats, plot_data and the status line.
	Telemetry *telemetry.Recorder
	// Journal, when non-nil, is the supervisor-owned event journal every
	// worker shares (fuzz.Options.JournalShared): worker events carry
	// their worker id, supervision events (recycle, retire, wedge,
	// quarantine) interleave under the writer's own lock, and worker
	// restores never truncate the shared stream.
	Journal *journal.Writer
	// StopAfter, when positive, interrupts the fleet once any worker's
	// exec counter reaches it — the reproducible mid-run interruption
	// the resume tests use.
	StopAfter int64
	// Chaos, when non-nil, is consulted at every worker queue-entry
	// boundary and may inject a panic or a wedge. Keyed by (worker,
	// generation, execs): faults keyed to a generation do not re-fire
	// on the restarted generation, which is what makes a chaos run's
	// final report byte-identical to a clean run's.
	Chaos func(worker, gen int, execs int64) ChaosAction
	// Sleep is injectable for tests (default time.Sleep).
	Sleep func(time.Duration)
	// Exit is called on a forced (second) Signal. Defaults to os.Exit.
	Exit func(code int)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 3
	}
	if o.CkptEvery <= 0 {
		o.CkptEvery = 25000
	}
	if o.Keep <= 0 {
		o.Keep = 2
	}
	if o.FS == nil {
		o.FS = campaign.OSFS{}
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Exit == nil {
		o.Exit = os.Exit
	}
	return o
}

// WorkerSeed derives worker i's RNG seed from the fleet seed. Worker 0
// keeps the fleet seed unchanged — a 1-worker fleet is byte-identical
// to the single-fuzzer campaign with the same seed — and the others get
// independent streams via splitmix64. Worker i's report is the single
// campaign's at WorkerSeed(seed, i).
func WorkerSeed(seed int64, worker int) int64 {
	if worker == 0 {
		return seed
	}
	z := uint64(seed) + uint64(worker)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z &^ (1 << 63)) // keep seeds non-negative for readability
}

// Worker lifecycle states (supervisor-side; guarded by Supervisor.mu).
type workerState int

const (
	stIdle workerState = iota
	stRunning
	stBackoff
	stDone
	stRetired
	stStopped
)

func (s workerState) String() string {
	switch s {
	case stIdle:
		return "idle"
	case stRunning:
		return "running"
	case stBackoff:
		return "backoff"
	case stDone:
		return "done"
	case stRetired:
		return "retired"
	case stStopped:
		return "stopped"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// worker is the supervisor-side record of one fuzzing worker.
type worker struct {
	id   int
	dir  string
	seed int64

	// Guarded by Supervisor.mu.
	gen       int         // current attempt generation; bumped to abandon stale attempts
	state     workerState //
	fails     int         // consecutive failures without durable progress
	lastStart int64       // exec counter the current/last attempt resumed from
	runner    *campaign.Runner
	abandon   chan struct{} // closed to release a wedged (chaos-blocked) attempt
	wedged    chan struct{} // closed by the watchdog to wake the manage loop
	report    *fuzz.Report  // final report once state == stDone

	// Watchdog heartbeat, written lock-free from the worker goroutine.
	beat      atomic.Int64 // unix nanos of the last boundary
	beatExecs atomic.Int64 // exec counter at the last boundary
	curInput  atomic.Pointer[[]byte]
	lastTelem atomic.Int64 // exec counter at the last telemetry publish
}

// attemptResult is what one worker attempt reports back to its manage
// loop.
type attemptResult struct {
	gen         int
	rep         *fuzz.Report
	interrupted bool
	err         error
	panicked    bool
	panicMsg    string
	input       []byte
	execs       int64
}

// Supervisor owns a fleet of workers over one campaign.
type Supervisor struct {
	dir  string
	opts Options

	prog *cfg.Program
	base fuzz.Options
	meta campaign.Meta
	sigs atomic.Int64

	mu       sync.Mutex
	workers  []*worker
	stopping bool
	quar     []fuzz.PoisonRec
	restarts int
	wedges   int

	stopCh    chan struct{}
	watchStop chan struct{}
	watchDone chan struct{}
	wg        sync.WaitGroup
}

// New builds a supervisor rooted at the fleet state directory dir.
func New(dir string, opts Options) *Supervisor {
	return &Supervisor{dir: dir, opts: opts.withDefaults(), stopCh: make(chan struct{})}
}

// workerDir is worker i's campaign state directory.
func (s *Supervisor) workerDir(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("worker-%d", i))
}

// workerOpts derives worker i's fuzz options from the base options:
// its own RNG stream and no recorder (the supervisor owns observability
// — per-worker recorders would clobber each other's single publish
// slot).
func (s *Supervisor) workerOpts(i int) fuzz.Options {
	o := s.base
	o.Seed = WorkerSeed(s.meta.Seed, i)
	o.Telemetry = nil
	o.KeepCrashInputs = true
	// All workers append to the one supervisor-owned journal; the shared
	// flag stops a worker restore from truncating its peers' events.
	// JournalWorker is set even without a writer — it also stamps corpus
	// provenance (Report.Corpus).
	o.Journal = s.opts.Journal
	o.JournalShared = true
	o.JournalWorker = i
	return o
}

// emit writes one supervisor-level journal event (nil-safe). The
// writer assigns the sequence number under its own lock, so supervisor
// and worker events interleave without extra coordination.
func (s *Supervisor) emit(ev journal.Event) {
	s.opts.Journal.Emit(ev)
}

// Start begins a fresh fleet campaign: every worker executes the seed
// corpus, writes checkpoint zero, and the initial manifest is
// persisted. meta.Budget is the per-worker execution budget;
// meta.Seed the fleet seed.
func (s *Supervisor) Start(prog *cfg.Program, base fuzz.Options, meta campaign.Meta, seeds [][]byte) error {
	if err := base.Validate(); err != nil {
		return err
	}
	s.prog, s.base, s.meta = prog, base, meta
	if err := s.opts.FS.MkdirAll(s.dir); err != nil {
		return err
	}
	for i := 0; i < s.opts.Workers; i++ {
		w := &worker{id: i, dir: s.workerDir(i), seed: WorkerSeed(meta.Seed, i)}
		wm := meta
		wm.Seed = w.seed
		r := campaign.NewRunner(w.dir, campaign.Config{
			FS: s.opts.FS, Interval: s.opts.CkptEvery, Keep: s.opts.Keep, Log: s.opts.Log,
		})
		if err := r.Start(prog, s.workerOpts(i), wm, seeds); err != nil {
			return fmt.Errorf("fleet: worker %d: %w", i, err)
		}
		s.workers = append(s.workers, w)
	}
	s.mu.Lock()
	err := s.persistManifestLocked()
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("fleet: initial manifest: %w", err)
	}
	return nil
}

// Attach resumes a fleet from its manifest and the workers' own
// checkpoints. base must reproduce the original campaign's options
// (the caller derives them from man.Meta, exactly as single-campaign
// resume does). A fleet that ran with corpus sync is refused with
// ErrSynced. A worker whose newest checkpoint fails
// fuzz.Snapshot.Validate — one written before snapshots carried the
// random generator's state fails with fuzz.ErrRNGState — refuses the
// whole resume: no restart could restore it.
func (s *Supervisor) Attach(prog *cfg.Program, base fuzz.Options, man *Manifest) error {
	if man.SyncEvery > 0 {
		return ErrSynced
	}
	if man.Workers != s.opts.Workers && s.opts.Workers != 2 { // 2 is the default: adopt silently
		s.logf("fleet: manifest has %d workers, overriding -workers %d", man.Workers, s.opts.Workers)
	}
	for i := 0; i < man.Workers; i++ {
		ck, _, err := campaign.LoadLatest(s.opts.FS, s.workerDir(i))
		if err != nil {
			continue // the attempt reports it, and restarts or retires the worker
		}
		if err := ck.Snap.Validate(); err != nil {
			return fmt.Errorf("fleet: worker %d: %w", i, err)
		}
	}
	s.opts.Workers = man.Workers
	s.opts.MaxRestarts = man.MaxRestarts
	s.prog, s.base, s.meta = prog, base, man.Meta
	s.quar = append([]fuzz.PoisonRec(nil), man.Quarantine...)
	s.restarts, s.wedges = man.Restarts, man.Wedges
	for i := 0; i < man.Workers; i++ {
		w := &worker{id: i, dir: s.workerDir(i), seed: WorkerSeed(man.Meta.Seed, i)}
		if man.Retired[i] {
			w.state = stRetired
		}
		s.workers = append(s.workers, w)
	}
	return nil
}

// Result is a finished (or interrupted) fleet campaign.
type Result struct {
	// Merged folds every worker's report: crash/bug dedup via BugKeys,
	// poison quarantine attached, Queue the concatenation of worker
	// queues. Nil when Interrupted.
	Merged *fuzz.Report
	// Workers holds the per-worker final reports (nil entries for
	// workers interrupted mid-run — impossible unless Interrupted).
	Workers []*fuzz.Report
	// Quarantined lists the poison-input findings (also merged into
	// Merged.Poison).
	Quarantined []fuzz.PoisonRec
	// Lifecycle counters.
	Restarts int
	Wedges   int
	Retired  []int
	// Interrupted reports a stop (signal or StopAfter) before every
	// worker finished; resume with Attach.
	Interrupted bool
}

// Run drives the fleet to completion (every worker done or retired) or
// interruption. It is not reentrant.
func (s *Supervisor) Run() (*Result, error) {
	if s.prog == nil {
		return nil, fmt.Errorf("fleet: Run before Start/Attach")
	}
	s.startWatchdog()
	for _, w := range s.workers {
		s.wg.Add(1)
		go s.manage(w)
	}
	s.wg.Wait()
	s.stopWatchdog()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.persistManifestLocked(); err != nil {
		s.logf("fleet: final manifest: %v", err)
	}
	res := &Result{
		Quarantined: append([]fuzz.PoisonRec(nil), s.quar...),
		Restarts:    s.restarts,
		Wedges:      s.wedges,
	}
	if s.stopping {
		res.Interrupted = true
		return res, nil
	}
	reports := make([]*fuzz.Report, len(s.workers))
	for i, w := range s.workers {
		switch w.state {
		case stDone:
			reports[i] = w.report
		case stRetired:
			res.Retired = append(res.Retired, w.id)
			rep, err := s.harvest(w)
			if err != nil {
				s.logf("fleet: harvesting retired worker %d: %v", w.id, err)
				continue
			}
			reports[i] = rep
		default:
			return nil, fmt.Errorf("fleet: worker %d ended in state %v", w.id, w.state)
		}
	}
	// Attach each worker's quarantined poison findings to its report so
	// MergeReports folds and canonically sorts them.
	for _, p := range s.quar {
		if p.Worker >= 0 && p.Worker < len(reports) && reports[p.Worker] != nil {
			reports[p.Worker].Poison = append(reports[p.Worker].Poison, p)
		}
	}
	res.Workers = reports
	merged := fuzz.MergeReports(reports...)
	// The merged corpus is the union of worker queues, not the last
	// worker's queue.
	merged.Queue = nil
	for _, rep := range reports {
		if rep != nil {
			merged.Queue = append(merged.Queue, rep.Queue...)
		}
	}
	merged.QueueLen = len(merged.Queue)
	res.Merged = merged
	s.publishAggregateLocked(merged)
	return res, nil
}

// harvest restores a retired worker's last checkpoint and reports its
// partial campaign — retirement degrades throughput, it never loses
// corpus entries or findings.
func (s *Supervisor) harvest(w *worker) (*fuzz.Report, error) {
	ck, warns, err := campaign.LoadLatest(s.opts.FS, w.dir)
	for _, warn := range warns {
		s.logf("fleet: worker %d: %s", w.id, warn)
	}
	if err != nil {
		return nil, err
	}
	f, err := fuzz.Restore(s.prog, s.workerOpts(w.id), ck.Snap)
	if err != nil {
		return nil, err
	}
	return f.Report(), nil
}

// Stop requests a graceful fleet shutdown: each worker checkpoints at
// its next boundary and Run returns Interrupted. Safe from any
// goroutine; repeated calls are no-ops.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.setStoppingLocked()
	s.mu.Unlock()
}

func (s *Supervisor) setStoppingLocked() {
	if s.stopping {
		return
	}
	s.stopping = true
	for _, w := range s.workers {
		if w.runner != nil {
			w.runner.RequestStop()
		}
	}
	select {
	case <-s.stopCh:
	default:
		close(s.stopCh)
	}
}

// Signal handles one delivered interrupt, idempotently across repeats:
// first — graceful Stop; second — forced exit (state already on disk:
// checkpoints and manifest are written as the fleet runs, and sealed
// frames make torn writes detectable on resume); further — no-op.
func (s *Supervisor) Signal() {
	switch s.sigs.Add(1) {
	case 1:
		s.Stop()
	case 2:
		s.opts.Exit(130)
	}
}

// manage is worker w's supervision loop: it runs attempts, classifies
// their endings (done, stopped, panicked, wedged), quarantines poison
// inputs, applies backoff, and retires the worker after MaxRestarts
// consecutive failures without durable progress.
func (s *Supervisor) manage(w *worker) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		if s.stopping {
			w.state = stStopped
			s.mu.Unlock()
			return
		}
		if w.state == stRetired { // resumed-as-retired
			s.mu.Unlock()
			return
		}
		gen := w.gen
		w.state = stRunning
		// A zero heartbeat marks the attempt's startup phase (checkpoint
		// load, RNG fast-forward, corpus re-calibration — proportional to
		// prior campaign progress, so no fixed deadline fits it). The
		// watchdog arms only once the first boundary stores a real beat.
		w.beat.Store(0)
		w.beatExecs.Store(0)
		w.abandon = make(chan struct{})
		w.wedged = make(chan struct{})
		wedgedCh := w.wedged
		s.mu.Unlock()

		done := make(chan attemptResult, 1)
		go s.attempt(w, gen, done)

		var res attemptResult
		wedge := false
		select {
		case res = <-done:
		case <-wedgedCh:
			wedge = true
		}

		s.mu.Lock()
		if s.stopping {
			w.state = stStopped
			s.mu.Unlock()
			return
		}
		switch {
		case wedge || (res.interrupted && w.gen != gen):
			// Watchdog declared the attempt wedged (it already recorded
			// the poison input, bumped the generation, and released any
			// chaos block). The interrupted case is the benign race where
			// the abandoned attempt finished before our select noticed.
			w.fails++
			s.restarts++
		case res.panicked:
			s.addPoisonLocked(fuzz.PoisonRec{
				Worker: w.id, Gen: gen, Msg: res.panicMsg,
				Input: res.input, Execs: res.execs, Count: 1,
			})
			w.gen++ // generation-keyed chaos must not re-fire on replay
			w.fails++
			s.restarts++
			s.logf("fleet: worker %d panicked at %d execs: %s", w.id, res.execs, res.panicMsg)
		case res.err != nil:
			w.gen++
			w.fails++
			s.restarts++
			s.logf("fleet: worker %d attempt failed: %v", w.id, res.err)
		case res.interrupted:
			// Interrupted without stopping and with a current generation:
			// StopAfter fired inside this worker's runner (checkpoint
			// already written). Interrupt the whole fleet.
			s.setStoppingLocked()
			w.state = stStopped
			s.mu.Unlock()
			return
		default:
			w.report = res.rep
			w.state = stDone
			if err := s.persistManifestLocked(); err != nil {
				s.logf("fleet: manifest after worker %d done: %v", w.id, err)
			}
			s.mu.Unlock()
			return
		}
		if w.fails >= s.opts.MaxRestarts {
			w.state = stRetired
			if err := s.persistManifestLocked(); err != nil {
				s.logf("fleet: manifest after worker %d retired: %v", w.id, err)
			}
			s.logf("fleet: worker %d retired after %d consecutive failures", w.id, w.fails)
			s.emit(journal.Event{
				Kind: journal.KindRetire, Worker: w.id, Gen: w.gen,
				Execs: res.execs, Msg: fmt.Sprintf("retired after %d consecutive failures", w.fails),
			})
			s.mu.Unlock()
			return
		}
		w.state = stBackoff
		if err := s.persistManifestLocked(); err != nil {
			s.logf("fleet: manifest after worker %d failure: %v", w.id, err)
		}
		s.emit(journal.Event{
			Kind: journal.KindRecycle, Worker: w.id, Gen: w.gen,
			Execs: res.execs, Msg: fmt.Sprintf("restart %d/%d", w.fails, s.opts.MaxRestarts),
		})
		delay := s.backoff(w.id, w.fails)
		s.mu.Unlock()
		s.logf("fleet: worker %d restarting from last checkpoint in %v (failure %d/%d)",
			w.id, delay, w.fails, s.opts.MaxRestarts)
		s.opts.Sleep(delay)
	}
}

const (
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// backoff is the restart delay before failure number fails (1-based):
// backoffBase doubling per failure, capped at backoffMax, plus up to
// 50% deterministic jitter derived from the fleet seed — decorrelating
// worker restarts without consuming campaign randomness.
func (s *Supervisor) backoff(workerID, fails int) time.Duration {
	d := backoffBase << (fails - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	z := uint64(s.meta.Seed)*0x9E3779B97F4A7C15 + uint64(workerID)<<32 + uint64(fails)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	jitter := time.Duration(z % uint64(d/2+1))
	return d + jitter
}

// attempt runs one worker generation: resume from the latest
// checkpoint, fuzz under the fleet boundary hook, and report the
// ending. Panics (chaos injection, corrupted state) are recovered here
// with the poison input captured on this same goroutine.
func (s *Supervisor) attempt(w *worker, gen int, out chan<- attemptResult) {
	res := attemptResult{gen: gen}
	var f *fuzz.Fuzzer
	defer func() {
		if p := recover(); p != nil {
			res.panicked = true
			res.panicMsg = fmt.Sprint(p)
			if f != nil {
				res.input = f.CurrentInput()
				res.execs = f.Execs()
			}
		}
		out <- res
	}()

	ck, warns, err := campaign.LoadLatest(s.opts.FS, w.dir)
	for _, warn := range warns {
		s.logf("fleet: worker %d: %s", w.id, warn)
	}
	if err != nil {
		res.err = err
		return
	}
	r := campaign.NewRunner(w.dir, campaign.Config{
		FS: s.opts.FS, Interval: s.opts.CkptEvery, Keep: s.opts.Keep, Log: s.opts.Log,
		StopAfter: s.opts.StopAfter,
		Boundary:  func(f *fuzz.Fuzzer) bool { return s.boundary(w, gen, f) },
	})
	wopts := s.workerOpts(w.id)
	wopts.JournalGen = gen // journal events name the attempt that emitted them
	if err := r.Attach(s.prog, wopts, ck); err != nil {
		res.err = err
		return
	}
	f = r.Fuzzer()

	s.mu.Lock()
	if w.gen != gen {
		s.mu.Unlock()
		res.interrupted = true
		return
	}
	w.runner = r
	// Durable progress since the previous attempt started resets the
	// consecutive-failure count: the worker is flapping only if it keeps
	// dying without ever checkpointing further.
	if ck.Snap.Stats.Execs > w.lastStart {
		w.fails = 0
	}
	w.lastStart = ck.Snap.Stats.Execs
	if s.stopping {
		r.RequestStop()
	}
	s.mu.Unlock()

	rep, interrupted, err := r.Run()
	res.rep, res.interrupted, res.err = rep, interrupted, err
	res.execs = f.Execs()
	// The attempt's final counters reach the recorder before the manage
	// loop sees its result, so before Run's closing aggregate.
	s.publishWorkerTelemetry(w, gen, f)
}

// addPoisonLocked quarantines one poison-input finding, deduplicated by
// (worker, message, input). A fresh quarantine is journaled and gets the
// worker's flight-recorder ring dumped — the events leading up to the
// kill are the forensic record of what the worker was doing.
func (s *Supervisor) addPoisonLocked(p fuzz.PoisonRec) {
	for i := range s.quar {
		if s.quar[i].Worker == p.Worker && s.quar[i].Msg == p.Msg && bytesEqual(s.quar[i].Input, p.Input) {
			s.quar[i].Count += p.Count
			return
		}
	}
	s.quar = append(s.quar, p)
	s.emit(journal.Event{
		Kind: journal.KindQuarantine, Worker: p.Worker, Gen: p.Gen,
		Execs: p.Execs, Msg: p.Msg, Len: len(p.Input),
	})
	s.opts.Journal.DumpFlight(fmt.Sprintf("poison-w%d-%s", p.Worker, journal.SanitizeName(p.Msg)), p.Worker)
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// persistManifestLocked atomically rewrites the fleet manifest from
// current supervisor state.
func (s *Supervisor) persistManifestLocked() error {
	m := &Manifest{
		Workers:     s.opts.Workers,
		MaxRestarts: s.opts.MaxRestarts,
		Meta:        s.meta,
		Quarantine:  append([]fuzz.PoisonRec(nil), s.quar...),
		Restarts:    s.restarts,
		Wedges:      s.wedges,
		Retired:     make([]bool, len(s.workers)),
		Done:        make([]bool, len(s.workers)),
	}
	for i, w := range s.workers {
		m.Retired[i] = w.state == stRetired
		m.Done[i] = w.state == stDone
	}
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return campaign.WriteFileAtomic(s.opts.FS, filepath.Join(s.dir, ManifestName), data)
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, format+"\n", args...)
	}
}
