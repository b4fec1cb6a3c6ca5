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
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
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
		budget      = flag.Int64("budget", 200000, "execution budget (the wall-clock analogue)")
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
		syncEvery   = flag.Int64("sync-every", 20000, "per-worker executions between fleet corpus syncs (0 disables)")
		watchdog    = flag.Duration("watchdog", 5*time.Second, "declare a fleet worker wedged after this long without progress (0 disables)")
		maxRestarts = flag.Int("max-restarts", 3, "consecutive worker failures before the fleet retires the worker")
		chaosEvery  = flag.Int64("chaos-every", 0, "fault injection: panic each worker's first attempt once past this exec count (0 disables; for supervision smoke tests)")
		analysisLvl = flag.String("analysis", "", "static-analysis strictness: strict runs the IR and bytecode verifiers on every compile (default off)")
		opt         = flag.Bool("opt", true, "enable verified bytecode optimization passes (constant folding, dead code)")
		guide       = flag.Bool("analysis-guide", false, "analysis-guided fuzzing: focus mutations on input-dependency byte ranges, boost unexplored input-dependent branches, skip input-independent cmplog sites")
		journalOn   = flag.Bool("journal", true, "write the structured event journal under <state>/journal (durable campaigns; inspect with paprof -journal)")
		stopAfter   = flag.Int64("stop-after", 0, "interrupt the campaign once the exec counter reaches this (reproducible interruption for resume/journal smoke tests)")
	)
	flag.Parse()

	if *analysisLvl != "" && *analysisLvl != "strict" {
		fatalf("unknown -analysis level %q (want strict or empty)", *analysisLvl)
	}
	icfg := instrument.Config{Analysis: *analysisLvl, NoOpt: !*opt}

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
		SyncEvery:   *syncEvery,
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

	if *resume {
		if *stateDir == "" {
			fatalf("-resume requires -o <state dir>")
		}
		if fleet.HasManifest(campaign.OSFS{}, *stateDir) {
			resumeFleetCampaign(*stateDir, fleetOpts, engine, *statusPer, *metricsAddr, *showCrash, *journalOn)
			return
		}
		resumeCampaign(*stateDir, *ckptEvery, *showCrash, engine, *statusPer, *metricsAddr, *journalOn, *stopAfter)
		return
	}

	var (
		target *core.Target
		seeds  [][]byte
		meta   campaign.Meta
		err    error
	)
	switch {
	case *subjectName != "":
		sub := subjects.Get(*subjectName)
		if sub == nil {
			fatalf("unknown subject %q (use -list)", *subjectName)
		}
		prog, perr := sub.Program()
		if perr != nil {
			fatalf("%v", perr)
		}
		target = core.FromProgram(prog)
		seeds = sub.Seeds
		meta.Subject = sub.Name
	case *srcPath != "":
		src, rerr := os.ReadFile(*srcPath)
		if rerr != nil {
			fatalf("%v", rerr)
		}
		target, err = core.Compile(string(src))
		if err != nil {
			fatalf("compile: %v", err)
		}
		seeds = [][]byte{[]byte("seed")}
		sum := sha256.Sum256(src)
		meta.Source = *srcPath
		meta.SourceSum = hex.EncodeToString(sum[:])
	default:
		fatalf("one of -subject or -src is required (or -list)")
	}

	if *inDir != "" {
		loaded := loadSeedDir(*inDir)
		if len(loaded) == 0 {
			warnf("seed dir %s yielded no usable inputs; keeping default seeds", *inDir)
		} else {
			seeds = loaded
		}
	}

	meta.Fuzzer = *fuzzerName
	meta.Seed = *seed
	meta.Budget = *budget
	meta.Entry = target.Entry
	meta.Guide = *guide

	banner := meta.Subject
	if banner == "" {
		banner = filepath.Base(meta.Source)
	}
	banner += "/" + *fuzzerName

	if *stateDir != "" {
		if fb, profile, ok := strategy.SingleConfig(strategy.Name(*fuzzerName)); ok {
			rec := startTelemetry(telemetry.Info{
				Banner:   banner,
				Engine:   engine.String(),
				Feedback: *fuzzerName,
				Seed:     *seed,
				Budget:   *budget,
				PID:      os.Getpid(),
			}, *stateDir, *metricsAddr, *statusPer)
			attachCartography(rec, target.Prog, fb, 0, banner)
			opts := fuzz.Options{
				Feedback:        fb,
				Profile:         profile,
				Seed:            *seed,
				Entry:           target.Entry,
				KeepCrashInputs: true,
				Engine:          engine,
				Instr:           icfg,
				AnalysisGuide:   *guide,
				Telemetry:       rec,
			}
			jw := openJournal(*stateDir, *journalOn, rec)
			if *workers > 1 {
				fleetOpts.Telemetry = rec
				fleetOpts.Journal = jw
				s := fleet.New(*stateDir, fleetOpts)
				if err := s.Start(target.Prog, opts, meta, seeds); err != nil {
					fatalf("%v", err)
				}
				fmt.Printf("fleet: %d workers, %d execs each (sync every %d)\n", *workers, *budget, *syncEvery)
				runFleetDurable(s, *stateDir, *fuzzerName, *showCrash)
				closeJournal(jw)
				closeTelemetry(rec)
				return
			}
			opts.Journal = jw
			r := campaign.NewRunner(*stateDir, campaign.Config{Interval: *ckptEvery, Log: os.Stderr, StopAfter: *stopAfter})
			if err := r.Start(target.Prog, opts, meta, seeds); err != nil {
				fatalf("%v", err)
			}
			fillEngineInfo(rec, r.Fuzzer())
			runDurable(r, *stateDir, *fuzzerName, *showCrash)
			closeJournal(jw)
			closeTelemetry(rec)
			return
		}
		if *workers > 1 {
			fatalf("-workers %d requires a single-phase -fuzzer, not round-based configuration %q", *workers, *fuzzerName)
		}
		for _, n := range strategy.AllNames {
			if n == strategy.Name(*fuzzerName) {
				warnf("configuration %q is round-based and not checkpointable; running non-durable, crashes still saved to %s", *fuzzerName, *stateDir)
				break
			}
		}
	}
	if *workers > 1 {
		fatalf("-workers %d requires -o <state dir>", *workers)
	}

	// Round-based configurations restart their counters every round, so
	// only the status line and the live endpoint are offered —
	// plot_data/fuzzer_stats (which AFL defines as monotone) are
	// reserved for durable single-config campaigns above.
	rec := startTelemetry(telemetry.Info{
		Banner:   banner,
		Engine:   engine.String(),
		Feedback: *fuzzerName,
		Seed:     *seed,
		Budget:   *budget,
		PID:      os.Getpid(),
	}, "", *metricsAddr, *statusPer)
	camp := core.Campaign{
		Fuzzer:          strategy.Name(*fuzzerName),
		Budget:          *budget,
		RoundBudget:     *roundBudget,
		Seeds:           seeds,
		Seed:            *seed,
		KeepCrashInputs: *stateDir != "",
		Engine:          engine,
		Instr:           icfg,
		AnalysisGuide:   *guide,
		Telemetry:       rec,
	}
	out, err := target.Fuzz(camp)
	closeTelemetry(rec)
	if err != nil {
		fatalf("%v", err)
	}
	if *stateDir != "" {
		if err := campaign.WriteCrashInputs(campaign.OSFS{}, *stateDir, out.Report); err != nil {
			warnf("saving crash inputs: %v", err)
		}
	}
	printReport(*fuzzerName, out.Report, out.Rounds, *showCrash)
}

// openJournal opens (or resumes) the structured event journal under
// <state>/journal. Journaling is display-only: a failed open degrades
// to a warning and the campaign runs unjournaled, byte-identical.
// When a recorder is active the journal directory is registered so the
// metrics endpoint can serve /genealogy.
func openJournal(stateDir string, enabled bool, rec *telemetry.Recorder) *journal.Writer {
	if !enabled || stateDir == "" {
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

// fillEngineInfo completes the recorder's identity with the compiled
// program's size once the fuzzer is built.
func fillEngineInfo(rec *telemetry.Recorder, f *fuzz.Fuzzer) {
	if rec == nil || f == nil {
		return
	}
	info := rec.Info()
	info.Instrs = f.BytecodeInstrs()
	info.Nops = f.BytecodeNops()
	rec.SetInfo(info)
}

func closeTelemetry(rec *telemetry.Recorder) {
	if rec == nil {
		return
	}
	if err := rec.Close(); err != nil {
		warnf("closing telemetry: %v", err)
	}
}

// resumeCampaign reloads the newest valid checkpoint under dir,
// reconstructs the target from its metadata, and runs the campaign to
// completion (or the next interruption).
func resumeCampaign(dir string, ckptEvery int64, showCrash bool, engine fuzz.Engine, statusPer time.Duration, metricsAddr string, journalOn bool, stopAfter int64) {
	ck, warns, err := campaign.LoadLatest(campaign.OSFS{}, dir)
	for _, w := range warns {
		warnf("%s", w)
	}
	if err != nil {
		fatalf("%v", err)
	}
	meta := ck.Meta
	target := targetFromMeta(meta)

	fb, profile, ok := strategy.SingleConfig(strategy.Name(meta.Fuzzer))
	if !ok {
		fatalf("checkpointed configuration %q is not resumable", meta.Fuzzer)
	}
	// The engine is not part of campaign state: CGT campaigns are
	// byte-identical to bytecode ones (the engine identity suites
	// enforce this), so a campaign checkpointed under one engine
	// resumes deterministically under either.
	banner := meta.Subject
	if banner == "" {
		banner = filepath.Base(meta.Source)
	}
	// AttachAFLOutput (inside startTelemetry) adopts the existing
	// plot_data's last relative_time as the elapsed base, so the resumed
	// campaign's rows continue the original series gaplessly.
	rec := startTelemetry(telemetry.Info{
		Banner:   banner + "/" + meta.Fuzzer,
		Engine:   engine.String(),
		Feedback: meta.Fuzzer,
		Seed:     meta.Seed,
		Budget:   meta.Budget,
		PID:      os.Getpid(),
	}, dir, metricsAddr, statusPer)
	attachCartography(rec, target.Prog, fb, meta.MapSize, banner+"/"+meta.Fuzzer)
	opts := fuzz.Options{
		Feedback:        fb,
		Profile:         profile,
		Seed:            meta.Seed,
		MapSize:         meta.MapSize,
		Entry:           meta.Entry,
		KeepCrashInputs: true,
		Engine:          engine,
		AnalysisGuide:   meta.Guide,
		Telemetry:       rec,
	}
	// Attach → fuzz.Restore truncates the journal back to the
	// checkpoint's event count; the replayed executions re-emit an
	// identical tail, keeping the resumed journal gapless.
	jw := openJournal(dir, journalOn, rec)
	opts.Journal = jw
	r := campaign.NewRunner(dir, campaign.Config{Interval: ckptEvery, Log: os.Stderr, StopAfter: stopAfter})
	if err := r.Attach(target.Prog, opts, ck); err != nil {
		fatalf("%v", err)
	}
	fillEngineInfo(rec, r.Fuzzer())
	fmt.Printf("resuming %s campaign at %d/%d execs\n", meta.Fuzzer, r.Fuzzer().Execs(), meta.Budget)
	runDurable(r, dir, meta.Fuzzer, showCrash)
	closeJournal(jw)
	closeTelemetry(rec)
}

// targetFromMeta reconstructs the fuzzed target from checkpoint or
// manifest metadata, refusing to resume against drifted sources.
func targetFromMeta(meta campaign.Meta) *core.Target {
	switch {
	case meta.Subject != "":
		sub := subjects.Get(meta.Subject)
		if sub == nil {
			fatalf("checkpoint references unknown subject %q", meta.Subject)
		}
		prog, perr := sub.Program()
		if perr != nil {
			fatalf("%v", perr)
		}
		return core.FromProgram(prog)
	case meta.Source != "":
		src, rerr := os.ReadFile(meta.Source)
		if rerr != nil {
			fatalf("checkpointed source: %v", rerr)
		}
		sum := sha256.Sum256(src)
		if got := hex.EncodeToString(sum[:]); got != meta.SourceSum {
			fatalf("source %s changed since the campaign started (sha256 %s, checkpoint has %s); resuming would not be deterministic", meta.Source, got, meta.SourceSum)
		}
		target, err := core.Compile(string(src))
		if err != nil {
			fatalf("compile: %v", err)
		}
		return target
	}
	fatalf("checkpoint names neither a subject nor a source file")
	return nil
}

// resumeFleetCampaign resumes a fleet from its manifest plus the
// workers' own checkpoints. The manifest's fleet shape (worker count,
// sync cadence, restart budget) overrides the flags — resuming with
// different values would break determinism.
func resumeFleetCampaign(dir string, fo fleet.Options, engine fuzz.Engine, statusPer time.Duration, metricsAddr string, showCrash bool, journalOn bool) {
	man, err := fleet.LoadManifest(campaign.OSFS{}, dir)
	if err != nil {
		fatalf("fleet manifest: %v", err)
	}
	meta := man.Meta
	target := targetFromMeta(meta)
	fb, profile, ok := strategy.SingleConfig(strategy.Name(meta.Fuzzer))
	if !ok {
		fatalf("fleet manifest references non-resumable configuration %q", meta.Fuzzer)
	}
	banner := meta.Subject
	if banner == "" {
		banner = filepath.Base(meta.Source)
	}
	rec := startTelemetry(telemetry.Info{
		Banner:   banner + "/" + meta.Fuzzer,
		Engine:   engine.String(),
		Feedback: meta.Fuzzer,
		Seed:     meta.Seed,
		Budget:   meta.Budget,
		PID:      os.Getpid(),
	}, dir, metricsAddr, statusPer)
	attachCartography(rec, target.Prog, fb, meta.MapSize, banner+"/"+meta.Fuzzer+" (fleet)")
	opts := fuzz.Options{
		Feedback:        fb,
		Profile:         profile,
		Seed:            meta.Seed,
		MapSize:         meta.MapSize,
		Entry:           meta.Entry,
		KeepCrashInputs: true,
		Engine:          engine,
		AnalysisGuide:   meta.Guide,
	}
	fo.Telemetry = rec
	// The fleet journal is supervisor-shared: worker restores append to
	// it without truncation, so peer events survive a resume.
	jw := openJournal(dir, journalOn, rec)
	fo.Journal = jw
	s := fleet.New(dir, fo)
	if err := s.Attach(target.Prog, opts, man); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("resuming %s fleet: %d workers, %d execs each\n", meta.Fuzzer, man.Workers, meta.Budget)
	runFleetDurable(s, dir, meta.Fuzzer, showCrash)
	closeJournal(jw)
	closeTelemetry(rec)
}

// runFleetDurable installs signal handling and drives a fleet to
// completion or interruption.
func runFleetDurable(s *fleet.Supervisor, dir, fuzzerName string, showCrash bool) {
	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		for range sigs {
			fmt.Fprintln(os.Stderr, "pafuzz: interrupt received, checkpointing fleet (again to force-quit)")
			s.Signal()
		}
	}()

	res, err := s.Run()
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

// runDurable installs signal handling and drives a durable campaign.
// Repeated interrupts are handled idempotently by Runner.Signal: the
// first checkpoints and stops gracefully, the second force-exits.
func runDurable(r *campaign.Runner, dir, fuzzerName string, showCrash bool) {
	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		for range sigs {
			fmt.Fprintln(os.Stderr, "pafuzz: interrupt received, checkpointing (again to force-quit)")
			r.Signal()
		}
	}()

	rep, interrupted, err := r.Run()
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
