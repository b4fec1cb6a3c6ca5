package strategy

import (
	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/instrument"
)

// Extension configurations implementing the future-work directions the
// paper sketches but does not evaluate. They are not part of AllNames
// (the paper's seven configurations) but run through the same driver
// machinery and are exercised by the ablation benches.
const (
	// Interleave alternates edge-based "exploration" rounds with
	// path-aware "exploitation" rounds (§V-C future work), carrying an
	// edge-preserving minimal queue across round boundaries.
	Interleave Name = "interleave"
	// Path2 runs the baseline driver with the 2-grams-of-paths
	// feedback (§VII future work).
	Path2 Name = "path2"
	// Selective runs the baseline driver with per-function selective
	// path sensitivity (§VI).
	Selective Name = "selective"
)

// ExtensionNames lists the extension configurations.
var ExtensionNames = []Name{Interleave, Path2, Selective}

// RunExtension dispatches an extension configuration; it also accepts
// the standard names, so callers can treat the union uniformly. Only
// interleave needs it: Run already runs the single-phase path2 and
// selective.
func RunExtension(name Name, prog *cfg.Program, cfgr Config) (*Outcome, error) {
	if name == Interleave {
		return RunInterleave(prog, cfgr)
	}
	return Run(name, prog, cfgr)
}

// RunInterleave alternates exploration (edge) and exploitation (path)
// rounds. Between rounds the queue is culled edge-preservingly, exactly
// as the culling driver does, so each stage starts from a compact
// corpus that still covers everything known.
func RunInterleave(prog *cfg.Program, c Config) (*Outcome, error) {
	remaining := c.Budget
	rb := c.roundBudget()
	seeds := c.Seeds
	var reports []*fuzz.Report
	var cullCost int64
	rounds := 0
	for remaining > 0 {
		budget := rb
		if budget > remaining || remaining-budget < rb/2 {
			budget = remaining
		}
		opts := c.Opts
		if rounds%2 == 0 {
			opts.Feedback = instrument.FeedbackEdge
		} else {
			opts.Feedback = instrument.FeedbackPath
		}
		opts.Seed = c.Opts.Seed*31 + int64(rounds)
		f, err := newFuzzer(prog, opts, seeds)
		if err != nil {
			return nil, err
		}
		f.Fuzz(budget)
		rep := f.Report()
		reports = append(reports, rep)
		rounds++
		remaining -= rep.Stats.Execs
		if remaining <= 0 {
			break
		}
		queue := f.QueueInputs()
		culled := fuzz.MinimizeCorpus(prog, queue, c.Opts.Entry, c.Opts.Limits)
		cullCost += int64(len(queue))
		remaining -= int64(len(queue))
		if len(culled) == 0 {
			culled = seeds
		}
		seeds = culled
	}
	return &Outcome{Report: fuzz.MergeReports(reports...), Rounds: rounds, CullCost: cullCost}, nil
}
