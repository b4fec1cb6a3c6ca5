package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cfg"
	"repro/internal/fleet"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/journal"
	"repro/internal/subjects"
	"repro/internal/telemetry"
)

// The durable workload uses pafuzz's documented durable defaults:
// -workers 2, -budget 200000 per worker, -sync-every 20000,
// -ckpt-every 25000, -watchdog 5s, journal on, fuzzer_stats/plot_data
// in the state directory. A budget that is a multiple of the sync
// cadence keeps the known fleet overshoot visible (a sync epoch landing
// on the budget imports peer entries after the budget is spent).
const (
	durableWorkers   = 2
	durableBudget    = 200000
	durableSyncEvery = 20000
	durableCkptEvery = 25000
	durableWatchdog  = 5 * time.Second
	// durableStopAfter interrupts each fleet between two sync epochs;
	// the resume then runs it to completion.
	durableStopAfter = 110000
)

var durableSubjects = []string{"jq", "lame", "mp42aac", "infotocap"}

// fleetRun is one durable campaign: a path-feedback fleet with a state
// directory, interrupted at durableStopAfter and resumed to completion.
type fleetRun struct {
	id      string
	subject *subjects.Subject
	seed    int64

	// times and traced hold the run and the resumed run's wall time in
	// every untraced and every traced pass; mem is the allocation
	// counters over the first traced pass.
	times, traced unitTimes
	mem           memDelta
	calib         time.Duration
	// execs is the executions after the workers' seed calibration.
	execs    int64
	merged   *fuzz.Report
	workers  []*fuzz.Report
	canon    []byte
	restarts int
	instrs   int
	nops     int

	journalEvents int64
	journalBytes  int64
	syncEpochs    int64
	ckpts         int64
	ckptBytes     int64
	ckptIO        time.Duration
	// ckptEncode is the time to snapshot and encode each worker's
	// interrupted state, the per-checkpoint cost outside the file I/O.
	ckptEncode []time.Duration
}

func durableFleets(seed int64) []*fleetRun {
	var out []*fleetRun
	for _, name := range durableSubjects {
		id := "durable/" + name + "/path"
		out = append(out, &fleetRun{id: id, subject: subjects.Get(name), seed: campaignSeed(seed, id)})
	}
	return out
}

// resumeSample is one measurement of what resuming the workload costs.
type resumeSample struct {
	decode, restore time.Duration
}

func (r resumeSample) total() time.Duration { return r.decode + r.restore }

// runFleets runs the durable workload: every pass runs every fleet from
// a fresh state directory, so each untraced pass is also one set-up
// sample of every fleet and times each worker's resume once. As with
// campaigns, a traced run follows every untraced pass with a traced
// one.
func (b *bench) runFleets(state string) error {
	b.fleets = b.w.fleets(b.seed)
	for p := 0; p < b.passes; p++ {
		for i, fr := range b.fleets {
			dir := filepath.Join(state, fmt.Sprintf("fleet-%d", i))
			setup, err := b.fleetPass(fr, p, false, dir)
			if err != nil {
				b.chk.fail(fr.id, durableWorkers*durableBudget, "pass %d: %v", p+1, err)
			}
			b.setup.add(i, setup)
			if !b.trace {
				continue
			}
			if _, err := b.fleetPass(fr, p+1, true, dir); err != nil {
				b.chk.fail(fr.id, durableWorkers*durableBudget, "traced pass %d: %v", p+1, err)
			}
		}
	}
	return nil
}

// runLayerFleets runs the durable fleets once, traced, so that a traced
// run of a workload without fleets still measures the layers only they
// reach: campaign, journal, telemetry and fleet.
func (b *bench) runLayerFleets(state string) {
	b.layerFleets = durableFleets(b.seed)
	for i, fr := range b.layerFleets {
		if _, err := b.fleetPass(fr, 0, true, filepath.Join(state, fmt.Sprintf("fleet-%d", i))); err != nil {
			b.chk.fail(fr.id, durableWorkers*durableBudget, "%v", err)
		}
	}
}

// observers are the journal and telemetry recorder pafuzz attaches to a
// durable fleet.
type observers struct {
	jw  *journal.Writer
	rec *telemetry.Recorder
}

func openObservers(dir string, fr *fleetRun) (*observers, error) {
	jw, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	rec := telemetry.New(telemetry.Config{Info: telemetry.Info{
		Banner: fr.subject.Name + "/path", Feedback: "path", Seed: fr.seed, Budget: durableBudget, PID: os.Getpid(),
	}})
	if err := rec.AttachAFLOutput(dir); err != nil {
		jw.Close()
		return nil, err
	}
	rec.SetJournalDir(jw.Dir())
	rec.StartCollector(time.Second)
	return &observers{jw: jw, rec: rec}, nil
}

func (o *observers) close() error {
	return errors.Join(o.jw.Close(), o.rec.Close())
}

// syncBuffer collects the log lines the fleet's goroutines write.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

func fleetOptions(fsys campaign.FS, log io.Writer, obs *observers, stopAfter int64) fleet.Options {
	return fleet.Options{
		Workers:   durableWorkers,
		SyncEvery: durableSyncEvery,
		Watchdog:  durableWatchdog,
		CkptEvery: durableCkptEvery,
		FS:        fsys,
		Log:       log,
		Telemetry: obs.rec,
		Journal:   obs.jw,
		StopAfter: stopAfter,
	}
}

func workerDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("worker-%d", i))
}

// fleetPass runs one fleet once: cold set-up (compile, lower, open the
// journal and recorder, fleet.Start), a timed run up to the
// interruption, the resume calls timed on their own, and a timed
// resumed run to completion. It then checks the state directory and
// that the merged report is identical to pass 1's. The first traced
// pass reads the allocation counters: pass 1 of a durable run's traced
// passes, or the single pass of the fleets a grid run adds.
func (b *bench) fleetPass(fr *fleetRun, p int, traced bool, dir string) (setup time.Duration, err error) {
	first := traced && p <= 1
	var logBuf syncBuffer
	defer func() {
		if log := logBuf.String(); err != nil && log != "" {
			fmt.Fprintf(b.log, "%s fleet log:\n%s", fr.id, log)
		}
		os.RemoveAll(dir)
	}()
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	fsys := &countFS{inner: campaign.OSFS{}}

	var prog *cfg.Program
	front := b.span(fr.id, "frontend", "cfg.Compile", func() { prog, err = cfg.Compile(fr.subject.Source) })
	if err != nil {
		return front, err
	}
	lower := b.span(fr.id, "compile", "instrument.CompiledFor/path", func() {
		instrument.CompiledFor(instrument.FeedbackPath, prog, instrument.Config{})
	})
	setup = front + lower
	if p == 0 && b.w.fleets != nil {
		b.frontend += front
		b.lower += lower
	}
	opts := fuzz.Options{Feedback: instrument.FeedbackPath, Seed: fr.seed, Entry: "main", KeepCrashInputs: true}
	meta := campaign.Meta{Subject: fr.subject.Name, Fuzzer: "path", Seed: fr.seed, Budget: durableBudget, Entry: "main"}
	var s *fleet.Supervisor
	var obs *observers
	calib := b.span(fr.id, "fleet", "fleet.Start", func() {
		if obs, err = openObservers(dir, fr); err != nil {
			return
		}
		opts.Telemetry = obs.rec
		s = fleet.New(dir, fleetOptions(fsys, &logBuf, obs, durableStopAfter))
		err = s.Start(prog, opts, meta, fr.subject.Seeds)
	})
	setup += calib
	if err != nil {
		return setup, err
	}
	var start int64
	for i := 0; i < durableWorkers; i++ {
		ck, _, lerr := campaign.LoadLatest(campaign.OSFS{}, workerDir(dir, i))
		if lerr != nil {
			return setup, lerr
		}
		start += ck.Snap.Stats.Execs
	}

	runtime.GC()
	m0 := b.readMem(first)
	var res *fleet.Result
	t1 := b.span(fr.id, "fleet", "fleet.Run", func() {
		res, err = s.Run()
		err = errors.Join(err, obs.close())
	})
	fr.mem.add(b.readMem(first), m0)
	if err != nil {
		return setup, err
	}
	if !res.Interrupted {
		return setup, fmt.Errorf("fleet ran to completion instead of stopping at %d execs", durableStopAfter)
	}

	// The calls a worker makes when it resumes, timed from outside.
	ropts := fuzz.Options{Feedback: instrument.FeedbackPath, Seed: fr.seed, Entry: "main", KeepCrashInputs: true}
	var encode []time.Duration
	for i := 0; i < durableWorkers; i++ {
		var ck *campaign.Checkpoint
		var rs resumeSample
		rs.decode = b.span(fr.id, "campaign", "campaign.LoadLatest", func() {
			ck, _, err = campaign.LoadLatest(campaign.OSFS{}, workerDir(dir, i))
		})
		if err != nil {
			return setup, err
		}
		wopts := ropts
		wopts.Seed = fleet.WorkerSeed(fr.seed, i)
		wopts.JournalWorker, wopts.JournalShared = i, true
		var f *fuzz.Fuzzer
		rs.restore = b.span(fr.id, "fuzz", "fuzz.Restore", func() { f, err = fuzz.Restore(prog, wopts, ck.Snap) })
		if err != nil {
			return setup, err
		}
		if !traced {
			b.noteResume(fmt.Sprintf("%s/worker-%d", fr.id, i), rs)
		}
		if p == 0 {
			fr.instrs, fr.nops = f.BytecodeInstrs(), f.BytecodeNops()
			encode = append(encode, b.span(fr.id, "campaign", "checkpoint.Encode", func() {
				_, err = (&campaign.Checkpoint{Meta: ck.Meta, Snap: f.Snapshot()}).Encode()
			}))
			if err != nil {
				return setup, err
			}
		}
	}

	// Resume as pafuzz -resume does: manifest, fresh observers, Attach.
	man, err := fleet.LoadManifest(fsys, dir)
	if err != nil {
		return setup, err
	}
	obs2, err := openObservers(dir, fr)
	if err != nil {
		return setup, err
	}
	ropts.Seed, ropts.MapSize, ropts.Entry = man.Meta.Seed, man.Meta.MapSize, man.Meta.Entry
	s2 := fleet.New(dir, fleetOptions(fsys, &logBuf, obs2, 0))
	if err := s2.Attach(prog, ropts, man); err != nil {
		obs2.close()
		return setup, err
	}
	runtime.GC()
	m0 = b.readMem(first)
	var res2 *fleet.Result
	t2 := b.span(fr.id, "fleet", "fleet.Run/resumed", func() {
		res2, err = s2.Run()
		err = errors.Join(err, obs2.close())
	})
	fr.mem.add(b.readMem(first), m0)
	if err != nil {
		return setup, err
	}
	if res2.Interrupted || res2.Merged == nil {
		return setup, fmt.Errorf("resumed fleet did not complete")
	}

	canon, err := campaign.CanonicalReport(res2.Merged)
	if err != nil {
		return setup, err
	}
	events, diag, err := journal.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		return setup, err
	}
	if !diag.OK() {
		return setup, fmt.Errorf("journal does not validate: %v %v", diag.Errors, diag.Gaps)
	}
	for i := 0; i < durableWorkers; i++ {
		if _, warns, lerr := campaign.LoadLatest(campaign.OSFS{}, workerDir(dir, i)); lerr != nil || len(warns) > 0 {
			return setup, fmt.Errorf("worker %d latest checkpoint does not decode: %v %v", i, lerr, warns)
		}
	}
	var execs int64
	for _, w := range res2.Workers {
		if w == nil {
			return setup, fmt.Errorf("fleet finished without a worker report")
		}
		execs += w.Stats.Execs
	}
	execs -= start

	if p == 0 {
		fr.execs, fr.calib = execs, calib
		fr.merged, fr.workers, fr.canon = res2.Merged, res2.Workers, canon
		fr.restarts = res2.Restarts + res2.Wedges
		fr.journalEvents = int64(len(events))
		fr.syncEpochs = int64(journal.KindCounts(events)[journal.KindSync])
		fr.journalBytes = dirBytes(filepath.Join(dir, "journal"))
		fr.ckpts, fr.ckptBytes, fr.ckptIO = fsys.counts()
		fr.ckptEncode = encode
	} else if !bytes.Equal(canon, fr.canon) {
		return setup, fmt.Errorf("repeated fleet produced a different merged report")
	}
	times := &fr.times
	if traced {
		times = &fr.traced
	}
	times.add(0, t1)
	times.add(1, t2)
	return setup, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// countFS wraps the fleet's filesystem to count checkpoint writes: how
// many, how many bytes, and the time spent writing, syncing, closing
// and renaming them. Both workers write through it concurrently.
type countFS struct {
	inner campaign.FS
	mu    sync.Mutex
	n     int64
	bytes int64
	io    time.Duration
}

func isCheckpoint(name string) bool {
	return strings.Contains(name, string(filepath.Separator)+"checkpoints"+string(filepath.Separator))
}

func (c *countFS) note(n int64, d time.Duration, renamed bool) {
	c.mu.Lock()
	c.bytes += n
	c.io += d
	if renamed {
		c.n++
	}
	c.mu.Unlock()
}

func (c *countFS) counts() (n, bytes int64, io time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, c.bytes, c.io
}

func (c *countFS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }

func (c *countFS) Create(name string) (campaign.File, error) {
	t0 := time.Now()
	f, err := c.inner.Create(name)
	if err != nil || !isCheckpoint(name) {
		return f, err
	}
	c.note(0, time.Since(t0), false)
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Rename(oldname, newname string) error {
	t0 := time.Now()
	err := c.inner.Rename(oldname, newname)
	if isCheckpoint(newname) {
		c.note(0, time.Since(t0), err == nil)
	}
	return err
}

func (c *countFS) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }
func (c *countFS) ReadDir(dir string) ([]string, error) { return c.inner.ReadDir(dir) }
func (c *countFS) Remove(name string) error             { return c.inner.Remove(name) }

type countFile struct {
	campaign.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.note(int64(n), time.Since(t0), false)
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.note(0, time.Since(t0), false)
	return err
}

func (f *countFile) Close() error {
	t0 := time.Now()
	err := f.File.Close()
	f.fs.note(0, time.Since(t0), false)
	return err
}
