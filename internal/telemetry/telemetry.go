// Package telemetry is the campaign observability subsystem: a typed
// counter registry with a lock-free hot path, time-series samplers for
// the trajectory metrics the paper's evaluation is built on (execs/s,
// coverage bits, map density, queue depth, novelty rate), per-stage
// span tracing with power-of-two latency histograms, AFL-compatible
// fuzzer_stats/plot_data emitters, and an HTTP endpoint serving a
// Prometheus text exposition, a JSON snapshot, and a live dashboard.
//
// The design keeps observation strictly out of the execution hot path:
// the fuzz loop maintains plain (non-atomic) int64 counters exactly as
// before, and at coarse safe points — queue-entry boundaries — copies
// them into a Counters value and Publishes it with a single atomic
// pointer store. A collector goroutine samples the published snapshot
// on a wall-clock cadence, derives rates from consecutive samples, and
// feeds the series, files, endpoint, and status line. Telemetry
// therefore never feeds back into campaign state, never contends with
// the exec loop, and adds no work per execution — the invariant the
// determinism tests pin down.
package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// Snapshot is one published, immutable view of the counters.
type Snapshot struct {
	Counters
	// When is the wall-clock publish time; Elapsed is time since the
	// recorder started (plus any carried base from a resumed campaign).
	When    time.Time
	Elapsed time.Duration
}

// MapDensity returns the touched-index fraction of the coverage map.
func (s *Snapshot) MapDensity() float64 {
	if s.MapSize == 0 {
		return 0
	}
	return float64(s.CoverageCount) / float64(s.MapSize)
}

// Info is the static campaign identity surfaced in fuzzer_stats and
// the endpoint, fixed when the recorder is built.
type Info struct {
	// Banner identifies the campaign, e.g. "flvmeta/cull".
	Banner string
	// Engine is the resolved execution engine ("bytecode" or "cgt").
	Engine string
	// Feedback names the coverage feedback mechanism.
	Feedback string
	// Instrs is the compiled bytecode instruction count.
	Instrs int
	Seed   int64
	Budget int64
	// GoVersion and PID are recorded for reproducibility.
	GoVersion string
	PID       int
}

// Config tunes a Recorder.
type Config struct {
	Info Info
	// Now injects a clock for deterministic tests (time.Now if nil).
	Now func() time.Time
	// SpanCap bounds the span ring (default 4096 spans).
	SpanCap int
	// Status, when non-nil, receives one FormatStatus line per sample:
	// the live status line is a view of the collector's tick. Callers
	// that Sample concurrently with the collector must pass a writer
	// that is safe for concurrent use.
	Status io.Writer
}

// seriesCap bounds the sample ring.
const seriesCap = 1024

// Recorder is the campaign-side telemetry hub. The publishing side
// (the fuzz loop) and the consuming side (collector goroutine, HTTP
// handlers) share it; only Publish is on the campaign's path and it
// performs one allocation and one atomic store per call.
type Recorder struct {
	now   func() time.Time
	start time.Time
	// base offsets Elapsed: AttachAFLOutput carries a resumed
	// campaign's wall-clock lineage forward so plot_data stays gapless.
	base time.Duration
	info Info
	cur  atomic.Pointer[Snapshot]

	mu     sync.Mutex
	series *series
	spans  *spanStore
	prev   *Snapshot // last sampled snapshot, for rate derivation
	afl    *AFLOutput
	status io.Writer
	// Last durable checkpoint (NoteCheckpoint), surfaced by /healthz:
	// a durable campaign whose checkpoint age grows without bound is
	// unhealthy even while its exec counter moves.
	ckptWhen  time.Time
	ckptExecs int64
	// journalDir, when set, points /genealogy at the on-disk journal;
	// the dashboard renders from files rather than live fuzzer state,
	// which would race the fuzz goroutine.
	journalDir string
	// Coverage cartography hooks (display-only): cellResolver resolves
	// journaled cells to source meaning on /genealogy; coveragePage
	// renders the /coverage report from journaled events. Both are
	// closures over offline state (program + reverse index), never live
	// fuzzer internals.
	cellResolver func(uint32) string
	coveragePage func(w io.Writer, events []journal.Event) error

	// Per-worker snapshot slots for fleet campaigns. The map is guarded
	// by wmu (slots are created once per worker); each slot is an atomic
	// pointer, so the per-worker publish path is lock-free after the
	// first call, and readers never block publishers.
	wmu     sync.Mutex
	workers map[int]*atomic.Pointer[Snapshot]

	collectDone chan struct{}
	collectStop chan struct{}
}

// New builds a recorder. The zero Config is usable.
func New(cfg Config) *Recorder {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	if cfg.SpanCap <= 0 {
		cfg.SpanCap = 4096
	}
	info := cfg.Info
	if info.GoVersion == "" {
		info.GoVersion = runtime.Version()
	}
	return &Recorder{
		now:    now,
		start:  now(),
		info:   info,
		series: newSeries(seriesCap),
		spans:  newSpanStore(cfg.SpanCap),
		status: cfg.Status,
	}
}

// Publish stores a new counter snapshot. It is the only telemetry call
// on the campaign's path: one allocation, one atomic pointer store, no
// locks. Safe to call concurrently with every consumer.
func (r *Recorder) Publish(c Counters) {
	now := r.now()
	r.cur.Store(&Snapshot{Counters: c, When: now, Elapsed: r.base + now.Sub(r.start)})
}

// Latest returns the most recently published snapshot (nil before the
// first Publish).
func (r *Recorder) Latest() *Snapshot { return r.cur.Load() }

// PublishWorker stores a per-worker counter snapshot (fleet campaigns).
// Safe to call concurrently from any number of worker publishers; each
// worker id has its own slot, so publishers never clobber each other.
func (r *Recorder) PublishWorker(id int, c Counters) {
	r.wmu.Lock()
	if r.workers == nil {
		r.workers = make(map[int]*atomic.Pointer[Snapshot])
	}
	slot, ok := r.workers[id]
	if !ok {
		slot = new(atomic.Pointer[Snapshot])
		r.workers[id] = slot
	}
	r.wmu.Unlock()
	now := r.now()
	slot.Store(&Snapshot{Counters: c, When: now, Elapsed: r.base + now.Sub(r.start)})
}

// WorkerSnapshot pairs a worker id with its latest published snapshot.
type WorkerSnapshot struct {
	ID int
	*Snapshot
}

// Workers returns the latest snapshot of every fleet worker that has
// published, sorted by worker id.
func (r *Recorder) Workers() []WorkerSnapshot {
	r.wmu.Lock()
	ids := make([]int, 0, len(r.workers))
	slots := make([]*atomic.Pointer[Snapshot], 0, len(r.workers))
	for id := range r.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		slots = append(slots, r.workers[id])
	}
	r.wmu.Unlock()
	out := make([]WorkerSnapshot, 0, len(ids))
	for i, id := range ids {
		if s := slots[i].Load(); s != nil {
			out = append(out, WorkerSnapshot{ID: id, Snapshot: s})
		}
	}
	return out
}

// AggregateWorkers sums the latest per-worker snapshots into one
// fleet-wide counter set. Because each worker's counters are cumulative
// and its slot only ever advances, the aggregate is monotone: no
// interleaving of publishes and reads can make a later aggregate
// smaller than an earlier one.
func (r *Recorder) AggregateWorkers() Counters {
	ws := r.Workers()
	cs := make([]Counters, len(ws))
	for i, w := range ws {
		cs[i] = w.Counters
	}
	return Aggregate(cs...)
}

// Info returns the campaign identity.
func (r *Recorder) Info() Info { return r.info }

// Elapsed returns wall-clock time since the recorder started, offset
// by any resumed base.
func (r *Recorder) Elapsed() time.Duration { return r.base + r.now().Sub(r.start) }

// NoteCheckpoint records that a durable checkpoint landed at the given
// execution count. The campaign runner calls it after every successful
// checkpoint write; /healthz reports the age.
func (r *Recorder) NoteCheckpoint(execs int64) {
	now := r.now()
	r.mu.Lock()
	r.ckptWhen, r.ckptExecs = now, execs
	r.mu.Unlock()
}

// LastCheckpoint returns the most recent checkpoint note (ok=false
// before the first one).
func (r *Recorder) LastCheckpoint() (when time.Time, execs int64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckptWhen, r.ckptExecs, !r.ckptWhen.IsZero()
}

// SetJournalDir points the HTTP layer's /genealogy page at an on-disk
// journal directory.
func (r *Recorder) SetJournalDir(dir string) {
	r.mu.Lock()
	r.journalDir = dir
	r.mu.Unlock()
}

// JournalDir returns the registered journal directory ("" when none).
func (r *Recorder) JournalDir() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journalDir
}

// SetCellResolver registers a coverage-cartography resolver used by
// /genealogy (and /coverage) to render journaled map cells as source
// meanings. The resolver must be a pure function over offline state
// (program + reverse index), never live fuzzer internals.
func (r *Recorder) SetCellResolver(f func(uint32) string) {
	r.mu.Lock()
	r.cellResolver = f
	r.mu.Unlock()
}

func (r *Recorder) resolver() journal.CellResolver {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cellResolver
}

// SetCoveragePage registers the /coverage page renderer: a closure that
// receives the on-disk journal's events and writes a self-contained
// HTML coverage report. Keeping the closure on the caller's side means
// telemetry never depends on the cartography index directly.
func (r *Recorder) SetCoveragePage(f func(w io.Writer, events []journal.Event) error) {
	r.mu.Lock()
	r.coveragePage = f
	r.mu.Unlock()
}

func (r *Recorder) coverage() func(w io.Writer, events []journal.Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.coveragePage
}

// AttachAFLOutput opens (or resumes) the AFL-compatible fuzzer_stats
// and plot_data files under dir; subsequent Sample calls append rows.
// When the plot file already holds rows (a resumed campaign), their
// final relative_time is adopted as the recorder's elapsed base so the
// series continues gaplessly. Call before the campaign starts
// publishing (the base is read lock-free on the publish path).
func (r *Recorder) AttachAFLOutput(dir string) error {
	out, err := OpenAFLOutput(dir)
	if err != nil {
		return err
	}
	if carried := time.Duration(out.lastRel) * time.Second; out.hasRows && r.base < carried {
		r.base = carried
	}
	r.mu.Lock()
	r.afl = out
	r.mu.Unlock()
	return nil
}

// Sample takes one collector tick: it loads the latest snapshot,
// derives rates against the previous sample, appends a series point,
// writes a plot_data row and rewrites fuzzer_stats when an AFL output
// is attached, and writes the status line when Config.Status is set.
// It is what the collector goroutine runs on its cadence, and what
// tests call directly for determinism. It returns the point recorded,
// or ok=false when nothing has been published yet or the counters have
// not advanced.
func (r *Recorder) Sample() (Point, bool) {
	s := r.Latest()
	if s == nil {
		return Point{}, false
	}
	r.mu.Lock()
	if r.prev != nil && r.prev.Elapsed == s.Elapsed && r.prev.Execs == s.Execs {
		r.mu.Unlock()
		return Point{}, false
	}
	p := derivePoint(r.prev, s)
	r.series.push(p)
	r.prev = s
	if r.afl != nil {
		r.afl.Append(s, p, r.info)
	}
	r.mu.Unlock()
	// Written outside the lock: a stalled terminal must not block the
	// HTTP handlers. The collector and Close's final sample run one at a
	// time, so the writer sees one line at a time.
	if r.status != nil {
		fmt.Fprintln(r.status, FormatStatus(s, p, r.info))
	}
	return p, true
}

// Points returns the recorded series, oldest first.
func (r *Recorder) Points() []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series.points()
}

// LastPoint returns the most recent series point.
func (r *Recorder) LastPoint() (Point, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series.last()
}

// StartCollector spawns the sampling goroutine on the given cadence
// (default 1s when non-positive). Stop it with Close. Starting twice
// is a no-op.
func (r *Recorder) StartCollector(every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	r.mu.Lock()
	if r.collectStop != nil {
		r.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.collectStop, r.collectDone = stop, done
	r.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Sample()
			case <-stop:
				return
			}
		}
	}()
}

// Close stops the collector (if running), takes a final sample so the
// last counters always reach the series and files, and closes the AFL
// output. Safe to call multiple times.
func (r *Recorder) Close() error {
	r.mu.Lock()
	stop, done := r.collectStop, r.collectDone
	r.collectStop, r.collectDone = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	r.Sample()
	r.mu.Lock()
	afl := r.afl
	r.afl = nil
	r.mu.Unlock()
	if afl != nil {
		return afl.Close()
	}
	return nil
}
