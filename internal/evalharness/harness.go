// Package evalharness runs the paper's evaluation end to end: multi-run
// campaigns for every ⟨subject, fuzzer⟩ pair, with renderers that
// regenerate each table and figure of the paper from the collected
// data. Budgets are execution counts (the deterministic analogue of the
// paper's 48-hour runs); campaigns are independent and run in parallel
// across a worker pool, while each individual campaign is fully
// deterministic given its seed.
package evalharness

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/strategy"
	"repro/internal/subjects"
	"repro/internal/triage"
	"repro/internal/vm"
)

// Config parameterises a suite run.
type Config struct {
	// Subjects to evaluate (default: all 18).
	Subjects []string
	// Fuzzers to evaluate (default: all 7 configurations).
	Fuzzers []strategy.Name
	// Runs per pair (the paper uses 10).
	Runs int
	// Budget is the per-run execution budget (the 48-hour analogue).
	Budget int64
	// RoundBudget is the culling round length (default Budget/8, the
	// 6-hours-of-48 analogue).
	RoundBudget int64
	// MapSize overrides the coverage map size.
	MapSize int
	// BaseSeed seeds run r of every campaign with BaseSeed+r.
	BaseSeed int64
	// Workers caps parallelism (default NumCPU).
	Workers int
	// Progress, when non-nil, receives one line per finished campaign.
	Progress io.Writer
	// StateDir, when non-empty, makes the suite durable: every finished
	// campaign is persisted under StateDir/runs/, and a restarted suite
	// reloads finished runs instead of recomputing them. Saved runs from
	// a different configuration (budget, seed, map size) are ignored.
	StateDir string
	// FS is the filesystem used for durable state (default campaign.OSFS;
	// tests inject fault filesystems).
	FS campaign.FS
	// Engine selects the execution engine for every campaign
	// (fuzz.EngineAuto, the compiled bytecode engine, by default; or
	// fuzz.EngineCGT).
	Engine fuzz.Engine
}

func (c Config) withDefaults() Config {
	if len(c.Subjects) == 0 {
		c.Subjects = subjects.Names()
	}
	if len(c.Fuzzers) == 0 {
		c.Fuzzers = strategy.AllNames
	}
	if c.Runs <= 0 {
		c.Runs = 10
	}
	if c.Budget <= 0 {
		c.Budget = 100000
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.FS == nil {
		c.FS = campaign.OSFS{}
	}
	return c
}

// RunResult is one finished campaign.
type RunResult struct {
	Subject string
	Fuzzer  strategy.Name
	Run     int
	Report  *fuzz.Report
	// Phase1 is the edge phase of an opp run (nil otherwise).
	Phase1 *fuzz.Report
	Rounds int
	// EdgeSet is the exact edge coverage of the final queue (the
	// afl-showmap replay).
	EdgeSet triage.Set[uint32]
}

// SuiteResult aggregates a full evaluation.
type SuiteResult struct {
	Cfg Config
	// Results[subject][fuzzer] has Cfg.Runs entries.
	Results map[string]map[strategy.Name][]*RunResult
	// Provenance: the toolchain and host the suite ran on, and its
	// wall-clock duration (restored runs make this smaller than the sum
	// of run durations).
	GoVersion string
	Host      string
	// Engine names the execution engine every campaign in the suite ran
	// on (part of run provenance: engines are observationally identical,
	// but throughput numbers are not comparable across them).
	Engine  string
	Elapsed time.Duration
}

// Runs returns the runs for one pair (nil if absent).
func (s *SuiteResult) Runs(subject string, f strategy.Name) []*RunResult {
	m, ok := s.Results[subject]
	if !ok {
		return nil
	}
	return m[f]
}

// CumulativeBugs unions the ground-truth bug sets across runs.
func (s *SuiteResult) CumulativeBugs(subject string, f strategy.Name) triage.Set[string] {
	out := triage.NewSet[string]()
	for _, rr := range s.Runs(subject, f) {
		for k := range triage.BugSet(rr.Report) {
			out.Add(k)
		}
	}
	return out
}

// CumulativeCrashes unions stack-hash crash sets across runs.
func (s *SuiteResult) CumulativeCrashes(subject string, f strategy.Name) triage.Set[uint64] {
	out := triage.NewSet[uint64]()
	for _, rr := range s.Runs(subject, f) {
		for k := range triage.CrashSet(rr.Report) {
			out.Add(k)
		}
	}
	return out
}

// CumulativeEdges unions exact edge coverage across runs.
func (s *SuiteResult) CumulativeEdges(subject string, f strategy.Name) triage.Set[uint32] {
	out := triage.NewSet[uint32]()
	for _, rr := range s.Runs(subject, f) {
		for k := range rr.EdgeSet {
			out.Add(k)
		}
	}
	return out
}

// AllBugs unions every fuzzer's cumulative bugs on a subject.
func (s *SuiteResult) AllBugs(subject string) triage.Set[string] {
	out := triage.NewSet[string]()
	for _, f := range s.Cfg.Fuzzers {
		for k := range s.CumulativeBugs(subject, f) {
			out.Add(k)
		}
	}
	return out
}

// RunSuite executes the configured campaigns.
func RunSuite(cfg Config) (*SuiteResult, error) {
	cfg = cfg.withDefaults()
	suiteStart := time.Now()
	host, _ := os.Hostname()
	sr := &SuiteResult{
		Cfg:       cfg,
		Results:   make(map[string]map[strategy.Name][]*RunResult),
		GoVersion: runtime.Version(),
		Host:      host,
		Engine:    cfg.Engine.String(),
	}

	type job struct {
		subject string
		fuzzer  strategy.Name
		run     int
	}
	var jobs []job
	for _, sub := range cfg.Subjects {
		if subjects.Get(sub) == nil {
			return nil, fmt.Errorf("evalharness: unknown subject %q", sub)
		}
		sr.Results[sub] = make(map[strategy.Name][]*RunResult)
		for _, f := range cfg.Fuzzers {
			sr.Results[sub][f] = make([]*RunResult, cfg.Runs)
			for r := 0; r < cfg.Runs; r++ {
				jobs = append(jobs, job{subject: sub, fuzzer: f, run: r})
			}
		}
	}

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		firstEr error
		ch      = make(chan job)
	)
	worker := func() {
		defer wg.Done()
		for j := range ch {
			var (
				rr     *RunResult
				err    error
				how    = "done"
				saveEr error
			)
			if cfg.StateDir != "" {
				rr = loadRun(cfg, j.subject, j.fuzzer, j.run)
			}
			if rr != nil {
				how = "restored"
			} else {
				rr, err = runOne(cfg, j.subject, j.fuzzer, j.run)
				if err == nil && cfg.StateDir != "" {
					// A failed save costs durability for this one run, not
					// the suite.
					saveEr = saveRun(cfg, rr)
					if saveEr == nil {
						saveEr = saveCurve(cfg, rr)
					}
					if saveEr == nil {
						saveEr = saveProvenance(cfg, rr)
					}
					if saveEr == nil {
						saveEr = saveCovReport(cfg, rr)
					}
				}
			}
			mu.Lock()
			if err != nil && firstEr == nil {
				firstEr = err
			}
			if err == nil {
				sr.Results[j.subject][j.fuzzer][j.run] = rr
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%s %-10s %-8s run %d: %d bugs, %d crashes, queue %d\n",
						how, j.subject, j.fuzzer, j.run, len(rr.Report.Bugs), len(rr.Report.Crashes), rr.Report.QueueLen)
					if saveEr != nil {
						fmt.Fprintf(cfg.Progress, "warning: persisting %s/%s run %d: %v\n", j.subject, j.fuzzer, j.run, saveEr)
					}
				}
			}
			mu.Unlock()
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go worker()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	sr.Elapsed = time.Since(suiteStart)
	return sr, nil
}

func runOne(cfg Config, subject string, f strategy.Name, run int) (*RunResult, error) {
	sub := subjects.Get(subject)
	prog, err := sub.Program()
	if err != nil {
		return nil, err
	}
	sc := strategy.Config{
		Opts: fuzz.Options{
			Seed:    cfg.BaseSeed + int64(run)*7919,
			MapSize: cfg.MapSize,
			Limits:  vm.DefaultLimits(),
			Engine:  cfg.Engine,
		},
		Budget:      cfg.Budget,
		RoundBudget: cfg.RoundBudget,
		Seeds:       sub.Seeds,
	}
	rr := &RunResult{
		Subject: subject,
		Fuzzer:  f,
		Run:     run,
		EdgeSet: triage.NewSet[uint32](),
	}
	out, err := strategy.Run(f, prog, sc)
	if err != nil {
		return nil, fmt.Errorf("%s/%s run %d: %w", subject, f, run, err)
	}
	rr.Report = out.Report
	rr.Phase1 = out.Phase1
	rr.Rounds = out.Rounds
	for id := range fuzz.ShowMap(prog, rr.Report.Queue, "main", vm.DefaultLimits()) {
		rr.EdgeSet.Add(id)
	}
	return rr, nil
}
