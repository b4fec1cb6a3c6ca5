// Package strategy implements the paper's exploration-biasing drivers
// around the path-aware fuzzer:
//
//   - Baseline: a single campaign with a chosen feedback (path or the
//     pcguard edge baseline).
//   - Cull (§III-B1): round-based fuzzing where, between rounds, the
//     queue is culled to an edge-coverage-preserving minimal corpus and
//     a fresh fuzzer instance is seeded with it. Culling costs are
//     charged to the fuzzing budget, as the paper's driver does.
//   - CullRandom (Appendix D): the ablation that culls randomly,
//     removing 84-98% of the queue per round.
//   - Opportunistic (§III-B2): an edge-coverage phase builds a queue;
//     crashing inputs are stripped and the queue trimmed
//     edge-preservingly; a path-aware phase consumes the rest of the
//     budget. Only phase-two findings are credited to opp.
//   - Path2 and Selective: single campaigns with the future-work
//     feedbacks the paper sketches (§VII, §VI) but does not evaluate.
//
// Budgets are execution counts; every driver is deterministic given its
// options' seed.
package strategy

import (
	"math/rand"

	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/instrument"
)

// Name identifies a fuzzer configuration in the evaluation's sense.
type Name string

// The fuzzer configurations evaluated by the paper.
const (
	Path    Name = "path"    // baseline path-aware feedback
	PCGuard Name = "pcguard" // edge-coverage baseline (AFL++ default)
	Cull    Name = "cull"    // path + culling rounds
	CullR   Name = "cull_r"  // path + random culling (ablation)
	Opp     Name = "opp"     // edge phase then path phase
	PathAFL Name = "pathafl" // PathAFL-like feedback on the AFL profile
	AFL     Name = "afl"     // plain AFL profile with edge feedback

	// Path2 runs the baseline driver with the 2-grams-of-paths
	// feedback (§VII future work).
	Path2 Name = "path2"
	// Selective runs the baseline driver with per-function selective
	// path sensitivity (§VI).
	Selective Name = "selective"
)

// AllNames lists the paper's configurations, in its reporting order.
// Path2 and Selective, which the paper does not evaluate, stay out.
var AllNames = []Name{Path, PCGuard, Cull, Opp, CullR, PathAFL, AFL}

// Outcome bundles a driver's results.
type Outcome struct {
	// Report is the cumulative campaign report credited to the
	// configuration.
	Report *fuzz.Report
	// Rounds counts culling rounds (1 for single-phase drivers).
	Rounds int
	// Phase1 is the edge-phase report of the opportunistic driver
	// (nil otherwise); its findings are *not* credited to opp.
	Phase1 *fuzz.Report
	// CullCost is the number of executions charged for culling.
	CullCost int64
}

// Config parameterises a driver run.
type Config struct {
	// Opts is the base fuzzer configuration; the driver overrides
	// Feedback and Profile as its strategy requires.
	Opts fuzz.Options
	// Budget is the total execution budget.
	Budget int64
	// RoundBudget is the culling round length (defaults to Budget/8,
	// the analogue of 6-hour rounds in a 48-hour run).
	RoundBudget int64
	// Seeds is the initial corpus.
	Seeds [][]byte
}

func (c Config) roundBudget() int64 {
	if c.RoundBudget > 0 {
		return c.RoundBudget
	}
	rb := c.Budget / 8
	if rb <= 0 {
		rb = c.Budget
	}
	return rb
}

// Run dispatches a named configuration: every single-phase name
// SingleConfig knows, and the round-based cull, cull_r, and opp.
func Run(name Name, prog *cfg.Program, cfgr Config) (*Outcome, error) {
	if fb, profile, ok := SingleConfig(name); ok {
		cfgr.Opts.Feedback = fb
		cfgr.Opts.Profile = profile
		return runSingle(prog, cfgr)
	}
	switch name {
	case Cull:
		return RunCull(prog, cfgr)
	case CullR:
		return RunCullRandom(prog, cfgr)
	case Opp:
		return RunOpportunistic(prog, cfgr)
	}
	return nil, &UnknownNameError{Name: name}
}

// SingleConfig maps a single-phase configuration name to the feedback
// and profile it runs with. ok is false for round-based drivers (cull,
// cull_r, opp), which spawn multiple fuzzer instances and
// are therefore not resumable as one durable campaign; package campaign
// uses this to decide whether a configuration supports checkpointing.
func SingleConfig(name Name) (fb instrument.Feedback, profile fuzz.Profile, ok bool) {
	switch name {
	case Path:
		return instrument.FeedbackPath, fuzz.ProfileAFLPlusPlus, true
	case PCGuard:
		return instrument.FeedbackEdge, fuzz.ProfileAFLPlusPlus, true
	case PathAFL:
		return instrument.FeedbackPathAFL, fuzz.ProfileAFL, true
	case AFL:
		return instrument.FeedbackEdge, fuzz.ProfileAFL, true
	case Path2:
		return instrument.FeedbackPath2, fuzz.ProfileAFLPlusPlus, true
	case Selective:
		return instrument.FeedbackSelective, fuzz.ProfileAFLPlusPlus, true
	}
	return 0, 0, false
}

// UnknownNameError reports an unrecognised configuration name.
type UnknownNameError struct{ Name Name }

// Error implements the error interface.
func (e *UnknownNameError) Error() string { return "strategy: unknown configuration " + string(e.Name) }

func newFuzzer(prog *cfg.Program, opts fuzz.Options, seeds [][]byte) (*fuzz.Fuzzer, error) {
	f, err := fuzz.New(prog, opts)
	if err != nil {
		return nil, err
	}
	for _, s := range seeds {
		f.AddSeed(s)
	}
	return f, nil
}

func runSingle(prog *cfg.Program, c Config) (*Outcome, error) {
	f, err := newFuzzer(prog, c.Opts, c.Seeds)
	if err != nil {
		return nil, err
	}
	f.Fuzz(c.Budget)
	return &Outcome{Report: f.Report(), Rounds: 1}, nil
}

// RunCull implements the culling driver: fixed-length rounds, each
// seeded with the edge-coverage-preserving minimal corpus of the
// previous round's queue. Culling executions are charged against the
// remaining budget, mirroring the paper's accounting.
func RunCull(prog *cfg.Program, c Config) (*Outcome, error) {
	c.Opts.Feedback = instrument.FeedbackPath
	return runRounds(prog, c, func(f *fuzz.Fuzzer, _ int64) ([][]byte, int64) {
		queue := f.QueueInputs()
		culled := fuzz.MinimizeCorpus(prog, queue, c.Opts.Entry, c.Opts.Limits)
		return culled, int64(len(queue))
	})
}

// RunCullRandom implements the Appendix D ablation: each round trims a
// uniformly random 84-98% of the queue. The per-round RNG is seeded
// deterministically from the campaign seed and round number (the paper
// seeds from the round timestamp; we need replayability).
func RunCullRandom(prog *cfg.Program, c Config) (*Outcome, error) {
	c.Opts.Feedback = instrument.FeedbackPath
	round := 0
	return runRounds(prog, c, func(f *fuzz.Fuzzer, _ int64) ([][]byte, int64) {
		round++
		rng := rand.New(rand.NewSource(c.Opts.Seed*1000003 + int64(round)))
		queue := f.QueueInputs()
		// Remove between 84% and 98% of the queue.
		removeFrac := 0.84 + rng.Float64()*0.14
		keep := len(queue) - int(float64(len(queue))*removeFrac)
		if keep < 1 {
			keep = 1
		}
		rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
		return queue[:keep], 0 // random culling replays nothing
	})
}

// runRounds is the shared round driver. cull maps a finished round's
// fuzzer to (next-round seeds, executions charged for culling). The
// merged report's exec stamps count the campaign's fuzzing executions
// across rounds, the axis of its Stats.Execs.
func runRounds(prog *cfg.Program, c Config, cull func(*fuzz.Fuzzer, int64) ([][]byte, int64)) (*Outcome, error) {
	remaining := c.Budget
	rb := c.roundBudget()
	seeds := c.Seeds
	var reports []*fuzz.Report
	var cullCost, fuzzed int64
	rounds := 0
	for remaining > 0 {
		budget := rb
		if budget > remaining || remaining-budget < rb/2 {
			// Last round absorbs the remainder (including what culling
			// cost subtracted), as the paper's driver does.
			budget = remaining
		}
		opts := c.Opts
		opts.Seed = c.Opts.Seed*31 + int64(rounds)
		f, err := newFuzzer(prog, opts, seeds)
		if err != nil {
			return nil, err
		}
		f.Fuzz(budget)
		rep := f.Report()
		shiftExecs(rep, fuzzed)
		fuzzed += rep.Stats.Execs
		reports = append(reports, rep)
		rounds++
		remaining -= rep.Stats.Execs
		if remaining <= 0 {
			break
		}
		next, cost := cull(f, remaining)
		cullCost += cost
		remaining -= cost
		if len(next) == 0 {
			next = seeds
		}
		seeds = next
	}
	return &Outcome{Report: fuzz.MergeReports(reports...), Rounds: rounds, CullCost: cullCost}, nil
}

// shiftExecs moves a round's exec stamps (corpus admissions and the
// first crash, bug and fault discoveries) from the round's own counter
// onto the campaign's: base is the earlier rounds' executions. The
// crash and bug records are the finished round's own, shifted in place:
// culling reads only that round's queue.
func shiftExecs(r *fuzz.Report, base int64) {
	for i := range r.Corpus {
		r.Corpus[i].FoundAt += base
	}
	for _, rec := range r.Crashes {
		rec.FoundAt += base
	}
	for _, rec := range r.Bugs {
		rec.FoundAt += base
	}
	for i := range r.Faults {
		r.Faults[i].FoundAt += base
	}
}

// RunOpportunistic implements the opportunistic driver: half the budget
// under edge coverage, then — after stripping crashers and trimming the
// queue edge-preservingly — the other half under path feedback. The
// pre-processing replays are charged to the path phase's budget.
func RunOpportunistic(prog *cfg.Program, c Config) (*Outcome, error) {
	phase1Budget := c.Budget / 2

	edgeOpts := c.Opts
	edgeOpts.Feedback = instrument.FeedbackEdge
	f1, err := newFuzzer(prog, edgeOpts, c.Seeds)
	if err != nil {
		return nil, err
	}
	f1.Fuzz(phase1Budget)
	rep1 := f1.Report()

	queue := f1.QueueInputs()
	clean := fuzz.StripCrashers(prog, queue, c.Opts.Entry, c.Opts.Limits)
	trimmed := fuzz.MinimizeCorpus(prog, clean, c.Opts.Entry, c.Opts.Limits)
	prep := int64(len(queue) + len(clean))
	if len(trimmed) == 0 {
		trimmed = c.Seeds
	}

	pathOpts := c.Opts
	pathOpts.Feedback = instrument.FeedbackPath
	pathOpts.Seed = c.Opts.Seed*31 + 1
	f2, err := newFuzzer(prog, pathOpts, trimmed)
	if err != nil {
		return nil, err
	}
	budget2 := c.Budget - rep1.Stats.Execs - prep
	if budget2 < 0 {
		budget2 = 0
	}
	f2.Fuzz(budget2)
	return &Outcome{Report: f2.Report(), Rounds: 1, Phase1: rep1, CullCost: prep}, nil
}
