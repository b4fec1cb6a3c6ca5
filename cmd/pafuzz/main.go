// Command pafuzz fuzzes a MiniC program (a benchmark subject or a .mc
// source file) with a chosen feedback/strategy configuration — the
// afl-fuzz analogue of this reproduction.
//
// Usage:
//
//	pafuzz -subject flvmeta -fuzzer cull -budget 200000
//	pafuzz -src prog.mc -fuzzer path -i seeds/ -o state/
//	pafuzz -resume -o state/
//
// With -o, single-phase configurations run as durable campaigns:
// checkpoints land in <state>/checkpoints/, crashing inputs in
// <state>/crashes/, and SIGINT/SIGTERM trigger a graceful shutdown
// checkpoint. -resume continues an interrupted campaign and is
// guaranteed to produce the same final report as an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/journal"
	"repro/internal/strategy"
	"repro/internal/subjects"
	"repro/internal/telemetry"
)

// maxSeedFile bounds seed corpus files loaded via -i; larger files are
// skipped with a warning rather than ballooning the campaign.
const maxSeedFile = 64 << 10

func main() {
	var (
		subjectName = flag.String("subject", "", "benchmark subject to fuzz (see -list)")
		srcPath     = flag.String("src", "", "MiniC source file to fuzz instead of a subject")
		fuzzerName  = flag.String("fuzzer", "path", "configuration: path|pcguard|cull|cull_r|opp|pathafl|afl|path2|selective")
		budget      = flag.Int64("budget", 200000, "execution budget, must be positive (the wall-clock analogue)")
		roundBudget = flag.Int64("round", 0, "culling round budget (default budget/8)")
		seed        = flag.Int64("seed", 1, "campaign RNG seed")
		inDir       = flag.String("i", "", "seed corpus directory (one input per file)")
		stateDir    = flag.String("o", "", "campaign state directory (enables checkpointing and crash saving)")
		resume      = flag.Bool("resume", false, "resume the campaign checkpointed in -o")
		ckptEvery   = flag.Int64("ckpt-every", 25000, "executions between periodic checkpoints")
		list        = flag.Bool("list", false, "list benchmark subjects and exit")
		showCrash   = flag.Bool("crashes", false, "print full reports for unique crashes")
		engineName  = flag.String("engine", "bytecode", "execution engine: bytecode|cgt (cgt adds self-patching probe elision with coverage-preserving retrace)")
		statusPer   = flag.Duration("status-period", time.Second, "wall-clock interval between status lines, which is also the telemetry sampling tick (0 disables the status line)")
		metricsAddr = flag.String("metrics-addr", "", "serve live metrics on this address (Prometheus at /metrics, JSON at /snapshot.json, dashboard at /)")
		workers     = flag.Int("workers", 1, "parallel fuzzing workers (>1 requires -o and a single-phase -fuzzer; -budget is per worker)")
		watchdog    = flag.Duration("watchdog", 5*time.Second, "declare a fleet worker wedged after this long without progress (0 disables)")
		maxRestarts = flag.Int("max-restarts", 3, "consecutive worker failures before the fleet retires the worker")
		chaosEvery  = flag.Int64("chaos-every", 0, "fault injection: panic each worker's first attempt once past this exec count (0 disables; for supervision smoke tests)")
		journalOn   = flag.Bool("journal", true, "write the structured event journal under <state>/journal (durable campaigns; inspect with paprof -journal)")
		stopAfter   = flag.Int64("stop-after", 0, "interrupt the campaign once the exec counter reaches this (reproducible interruption for resume/journal smoke tests)")
	)
	flag.Parse()

	engine, engErr := fuzz.ParseEngine(*engineName)
	if engErr != nil {
		fatalf("%v", engErr)
	}

	if *list {
		for _, s := range subjects.All() {
			fmt.Printf("%-10s %-6s %d planted bugs, %d seeds\n", s.Name, s.TypeLabel, len(s.Bugs), len(s.Seeds))
		}
		return
	}

	fleetOpts := fleet.Options{
		Workers:     *workers,
		Watchdog:    *watchdog,
		MaxRestarts: *maxRestarts,
		CkptEvery:   *ckptEvery,
		Log:         os.Stderr,
		StopAfter:   *stopAfter,
	}
	if *chaosEvery > 0 {
		n := *chaosEvery
		fleetOpts.Chaos = func(worker, gen int, execs int64) fleet.ChaosAction {
			if gen == 0 && execs >= n {
				return fleet.ChaosPanic
			}
			return fleet.ChaosNone
		}
	}

	// The campaign description: built from the flags for a new campaign,
	// loaded from the newest checkpoint or the fleet manifest on -resume.
	// Everything below runs from it alone.
	var (
		meta campaign.Meta
		ck   *campaign.Checkpoint
		man  *fleet.Manifest
	)
	if *resume {
		if *stateDir == "" {
			fatalf("-resume requires -o <state dir>")
		}
		ck, man = loadState(*stateDir)
		if man != nil {
			meta = man.Meta
			fleetOpts.Workers = man.Workers
		} else {
			meta = ck.Meta
		}
	} else {
		if *subjectName == "" && *srcPath == "" {
			fatalf("one of -subject or -src is required (or -list)")
		}
		if *budget <= 0 {
			fatalf("-budget must be positive, got %d", *budget)
		}
		meta = campaign.Meta{
			Subject: *subjectName,
			Source:  *srcPath,
			Fuzzer:  *fuzzerName,
			Seed:    *seed,
			Budget:  *budget,
			Entry:   "main",
		}
	}
	prog, seeds, err := meta.Program()
	if err != nil {
		fatalf("%v", err)
	}
	if *inDir != "" && !*resume {
		if loaded := loadSeedDir(*inDir); len(loaded) > 0 {
			seeds = loaded
		} else {
			warnf("seed dir %s yielded no usable inputs; keeping default seeds", *inDir)
		}
	}

	fb, profile, single := strategy.SingleConfig(strategy.Name(meta.Fuzzer))
	asFleet := man != nil || (!*resume && *workers > 1)
	durable := *stateDir != "" && single
	switch {
	case *resume && !single:
		fatalf("%s: configuration %q is not resumable", *stateDir, meta.Fuzzer)
	case asFleet && *stateDir == "":
		fatalf("-workers %d requires -o <state dir>", *workers)
	case asFleet && !single:
		fatalf("-workers %d requires a single-phase -fuzzer, not round-based configuration %q", *workers, meta.Fuzzer)
	case *stateDir != "" && !single && slices.Contains(strategy.AllNames, strategy.Name(meta.Fuzzer)):
		warnf("configuration %q is round-based and not checkpointable; running non-durable, crashes still saved to %s", meta.Fuzzer, *stateDir)
	}

	info := telemetry.Info{
		Banner:   meta.Label(),
		Engine:   engine.String(),
		Feedback: meta.Fuzzer,
		Seed:     meta.Seed,
		Budget:   meta.Budget,
		PID:      os.Getpid(),
	}
	if single {
		// The fuzzer compiles the same (program, feedback) key, so this
		// is the process-wide memoized program it will run.
		cp, _ := instrument.CompiledFor(fb, prog, instrument.Config{})
		info.Instrs = cp.NumInstrs()
	}
	// Round-based configurations restart their counters every round, so
	// they get only the status line and the live endpoint —
	// plot_data/fuzzer_stats (which AFL defines as monotone) are
	// reserved for durable single-config campaigns. A resumed campaign's
	// AttachAFLOutput adopts the existing plot_data's last relative_time
	// as its elapsed base, so the rows continue the series gaplessly.
	aflDir := ""
	if durable {
		aflDir = *stateDir
	}
	rec := startTelemetry(info, aflDir, *metricsAddr, *statusPer)
	if durable {
		label := meta.Label()
		if asFleet {
			label += " (fleet)"
		}
		attachCartography(rec, prog, fb, meta.MapSize, label)
	}
	// A resumed single campaign's Attach (fuzz.Restore) truncates the
	// journal back to the checkpoint's event count, and the replayed
	// executions re-emit an identical tail. A fleet's journal is
	// supervisor-shared: worker restores append without truncating, so
	// peer events survive a resume.
	jw := openJournal(*stateDir, *journalOn && durable, rec)
	// The engine is not campaign state: engines are byte-identical (the
	// identity suites enforce this), so a resume re-applies it from the
	// flags. Crash inputs are always kept (at most 512 bytes each, one
	// per unique crash), so -crashes prints them with or without -o.
	opts := fuzz.Options{
		Feedback:        fb,
		Profile:         profile,
		Seed:            meta.Seed,
		MapSize:         meta.MapSize,
		Entry:           meta.Entry,
		KeepCrashInputs: true,
		Engine:          engine,
		Telemetry:       rec,
		Journal:         jw,
	}

	switch {
	case asFleet:
		fleetOpts.Telemetry = rec
		fleetOpts.Journal = jw
		s := fleet.New(*stateDir, fleetOpts)
		if man != nil {
			err = s.Attach(prog, opts, man)
		} else {
			err = s.Start(prog, opts, meta, seeds)
		}
		if err != nil {
			fatalf("%v", err)
		}
		if man != nil {
			fmt.Printf("resuming %s fleet: %d workers, %d execs each\n", meta.Fuzzer, man.Workers, meta.Budget)
		} else {
			fmt.Printf("fleet: %d workers, %d execs each\n", *workers, meta.Budget)
		}
		driveFleet(s, *stateDir, meta.Fuzzer, *showCrash)
	case durable:
		r := campaign.NewRunner(*stateDir, campaign.Config{Interval: *ckptEvery, Log: os.Stderr, StopAfter: *stopAfter})
		if ck != nil {
			err = r.Attach(prog, opts, ck)
		} else {
			err = r.Start(prog, opts, meta, seeds)
		}
		if err != nil {
			fatalf("%v", err)
		}
		if ck != nil {
			fmt.Printf("resuming %s campaign at %d/%d execs\n", meta.Fuzzer, r.Fuzzer().Execs(), meta.Budget)
		}
		driveCampaign(r, *stateDir, meta.Fuzzer, *showCrash)
	default:
		out, err := strategy.Run(strategy.Name(meta.Fuzzer), prog, strategy.Config{
			Opts:        opts,
			Budget:      meta.Budget,
			RoundBudget: *roundBudget,
			Seeds:       seeds,
		})
		closeTelemetry(rec)
		if err != nil {
			fatalf("%v", err)
		}
		if *stateDir != "" {
			if err := campaign.WriteCrashInputs(campaign.OSFS{}, *stateDir, out.Report); err != nil {
				warnf("saving crash inputs: %v", err)
			}
		}
		printReport(meta.Fuzzer, out.Report, out.Rounds, *showCrash)
		return
	}
	closeJournal(jw)
	closeTelemetry(rec)
}

// loadState loads the campaign to resume from a state directory: the
// fleet manifest when there is one, else the newest valid checkpoint
// (older ones are fallbacks for a torn newest).
func loadState(dir string) (*campaign.Checkpoint, *fleet.Manifest) {
	if fleet.HasManifest(campaign.OSFS{}, dir) {
		man, err := fleet.LoadManifest(campaign.OSFS{}, dir)
		if err != nil {
			fatalf("fleet manifest: %v", err)
		}
		return nil, man
	}
	ck, warns, err := campaign.LoadLatest(campaign.OSFS{}, dir)
	for _, w := range warns {
		warnf("%s", w)
	}
	if err != nil {
		fatalf("%v", err)
	}
	return ck, nil
}

// openJournal opens (or resumes) the structured event journal under
// <state>/journal. Journaling is display-only: a failed open degrades
// to a warning and the campaign runs unjournaled, byte-identical.
// When a recorder is active the journal directory is registered so the
// metrics endpoint can serve /genealogy.
func openJournal(stateDir string, enabled bool, rec *telemetry.Recorder) *journal.Writer {
	if !enabled {
		return nil
	}
	jw, err := journal.Open(filepath.Join(stateDir, "journal"), journal.Options{})
	if err != nil {
		warnf("journal disabled: %v", err)
		return nil
	}
	if rec != nil {
		rec.SetJournalDir(jw.Dir())
	}
	return jw
}

func closeJournal(jw *journal.Writer) {
	if jw == nil {
		return
	}
	if err := jw.Close(); err != nil {
		warnf("closing journal: %v", err)
	}
}

// startTelemetry builds the campaign's telemetry recorder, the one live
// view of the campaign: the status line on stderr (when statusPeriod is
// positive), AFL-style fuzzer_stats/plot_data under stateDir (when set)
// and the live HTTP endpoint on metricsAddr (when set), all fed by one
// collector ticking every statusPeriod (every second when the line is
// off). Returns nil when no output is requested — the campaign then
// skips all telemetry work.
func startTelemetry(info telemetry.Info, stateDir, metricsAddr string, statusPeriod time.Duration) *telemetry.Recorder {
	if statusPeriod <= 0 && stateDir == "" && metricsAddr == "" {
		return nil
	}
	cfg := telemetry.Config{Info: info}
	if statusPeriod > 0 {
		cfg.Status = os.Stderr
	}
	rec := telemetry.New(cfg)
	if stateDir != "" {
		if err := rec.AttachAFLOutput(stateDir); err != nil {
			warnf("telemetry output: %v", err)
		}
	}
	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			warnf("metrics endpoint: %v", err)
		} else {
			fmt.Fprintf(os.Stderr, "pafuzz: serving metrics on http://%s/\n", ln.Addr())
			go http.Serve(ln, rec.Handler())
		}
	}
	rec.StartCollector(statusPeriod)
	return rec
}

func closeTelemetry(rec *telemetry.Recorder) {
	if rec == nil {
		return
	}
	if err := rec.Close(); err != nil {
		warnf("closing telemetry: %v", err)
	}
}

// onInterrupt forwards SIGINT/SIGTERM to notify (a Runner's or a
// Supervisor's, both idempotent across repeats: the first checkpoints
// and stops gracefully, the second force-exits) until the returned
// function is called.
func onInterrupt(notify func()) (stop func()) {
	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		for range sigs {
			fmt.Fprintln(os.Stderr, "pafuzz: interrupt received, checkpointing (again to force-quit)")
			notify()
		}
	}()
	return func() {
		signal.Stop(sigs) // no sends after Stop returns, so closing is safe
		close(sigs)
	}
}

// driveFleet drives a fleet to completion or interruption and prints its
// merged report.
func driveFleet(s *fleet.Supervisor, dir, fuzzerName string, showCrash bool) {
	stop := onInterrupt(s.Signal)
	res, err := s.Run()
	stop()
	if err != nil {
		fatalf("%v", err)
	}
	if res.Interrupted {
		fmt.Printf("fleet interrupted; continue with: pafuzz -resume -o %s\n", dir)
		return
	}
	printReport(fuzzerName, res.Merged, 1, showCrash)
	for i, rep := range res.Workers {
		if rep == nil {
			continue
		}
		fmt.Printf("  worker %d: execs=%d queue=%d crashes=%d bugs=%d\n",
			i, rep.Stats.Execs, rep.QueueLen, len(rep.Crashes), len(rep.Bugs))
	}
	if res.Restarts > 0 || res.Wedges > 0 || len(res.Retired) > 0 {
		fmt.Printf("supervision: restarts=%d wedges=%d retired=%v\n", res.Restarts, res.Wedges, res.Retired)
	}
	for _, p := range res.Quarantined {
		fmt.Printf("  poison-input: worker=%d execs=%d x%d %s\n", p.Worker, p.Execs, p.Count, p.Msg)
	}
	fmt.Printf("state: %s (manifest %s)\n", dir, filepath.Join(dir, fleet.ManifestName))
}

// driveCampaign drives a durable campaign to completion or interruption
// and prints its report.
func driveCampaign(r *campaign.Runner, dir, fuzzerName string, showCrash bool) {
	stop := onInterrupt(r.Signal)
	rep, interrupted, err := r.Run()
	stop()
	if err != nil {
		fatalf("%v", err)
	}
	if interrupted {
		fmt.Printf("campaign interrupted at %d execs; continue with: pafuzz -resume -o %s\n", r.Fuzzer().Execs(), dir)
		return
	}
	printReport(fuzzerName, rep, 1, showCrash)
	fmt.Printf("state: %s (crashes in %s)\n", dir, filepath.Join(dir, "crashes"))
}

// loadSeedDir reads one input per regular file in dir, in name order,
// skipping unreadable or oversized files with a warning.
func loadSeedDir(dir string) [][]byte {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatalf("seed dir: %v", err)
	}
	var seeds [][]byte
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		info, err := ent.Info()
		if err != nil {
			warnf("skipping seed %s: %v", path, err)
			continue
		}
		if info.Size() > maxSeedFile {
			warnf("skipping seed %s: %d bytes exceeds %d byte cap", path, info.Size(), maxSeedFile)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			warnf("skipping seed %s: %v", path, err)
			continue
		}
		seeds = append(seeds, data)
	}
	return seeds
}

func printReport(fuzzerName string, rep *fuzz.Report, rounds int, showCrash bool) {
	fmt.Printf("fuzzer=%s execs=%d queue=%d favored=%d timeouts=%d crashes=%d faults=%d rounds=%d\n",
		fuzzerName, rep.Stats.Execs, rep.QueueLen, rep.FavoredLen,
		rep.Stats.Timeouts, rep.Stats.CrashExecs, rep.Stats.InternalFaults, rounds)
	fmt.Printf("unique crashes (stack hash): %d\n", len(rep.Crashes))
	keys := rep.BugKeys()
	fmt.Printf("unique bugs (ground truth): %d\n", len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		rec := rep.Bugs[k]
		fmt.Printf("  %-40s x%d (first at exec %d)\n", k, rec.Count, rec.FoundAt)
	}
	for _, ft := range rep.Faults {
		fmt.Printf("  internal-fault: %-25s x%d (first at exec %d)\n", ft.Msg, ft.Count, ft.FoundAt)
	}
	if showCrash {
		for _, rec := range rep.Crashes {
			fmt.Printf("\n%s\n  input: %q\n", rec.Crash, rec.Input)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pafuzz: "+format+"\n", args...)
	os.Exit(1)
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pafuzz: warning: "+format+"\n", args...)
}
