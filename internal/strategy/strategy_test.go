package strategy_test

import (
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/strategy"
	"repro/internal/subjects"
)

func flvProg(t testing.TB) *cfg.Program {
	t.Helper()
	sub := subjects.Get("flvmeta")
	p, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func baseConfig(budget int64) strategy.Config {
	return strategy.Config{
		Opts:   fuzz.Options{Seed: 5, MapSize: 1 << 12},
		Budget: budget,
		Seeds:  subjects.Get("flvmeta").Seeds,
	}
}

func TestRunAllConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	p := flvProg(t)
	for _, name := range strategy.AllNames {
		out, err := strategy.Run(name, p, baseConfig(15000))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Report.Stats.Execs == 0 {
			t.Errorf("%s: no executions", name)
		}
		if out.Report.QueueLen == 0 {
			t.Errorf("%s: empty final queue", name)
		}
		t.Logf("%-8s execs=%d queue=%d bugs=%d rounds=%d",
			name, out.Report.Stats.Execs, out.Report.QueueLen, len(out.Report.Bugs), out.Rounds)
	}
}

// TestRunCoversSingleConfig pins that Run runs every single-phase name
// SingleConfig knows, with SingleConfig's feedback and profile: driving
// the same campaign by hand gives an identical report.
func TestRunCoversSingleConfig(t *testing.T) {
	p := flvProg(t)
	names := append(append([]strategy.Name(nil), strategy.AllNames...), strategy.ExtensionNames...)
	single := 0
	for _, name := range names {
		fb, profile, ok := strategy.SingleConfig(name)
		if !ok {
			continue
		}
		single++
		cfgr := baseConfig(2000)
		out, err := strategy.Run(name, p, cfgr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts := cfgr.Opts
		opts.Feedback, opts.Profile = fb, profile
		f, err := fuzz.New(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range cfgr.Seeds {
			f.AddSeed(s)
		}
		f.Fuzz(cfgr.Budget)
		if !reflect.DeepEqual(out.Report, f.Report()) {
			t.Errorf("%s: Run's report differs from a %v/%v campaign", name, fb, profile)
		}
	}
	if single != 6 {
		t.Errorf("SingleConfig accepts %d of the known names, want 6", single)
	}
}

func TestUnknownName(t *testing.T) {
	p := flvProg(t)
	if _, err := strategy.Run("bogus", p, baseConfig(100)); err == nil {
		t.Error("unknown configuration accepted")
	}
}

func TestCullRunsMultipleRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	p := flvProg(t)
	cfgr := baseConfig(40000)
	cfgr.RoundBudget = 10000
	out, err := strategy.RunCull(p, cfgr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds < 3 {
		t.Errorf("rounds = %d, want >= 3", out.Rounds)
	}
	// Budget accounting: total executions (including culling replays)
	// must not exceed the budget by more than one round's slack.
	total := out.Report.Stats.Execs + out.CullCost
	if total > cfgr.Budget+cfgr.Budget/4 {
		t.Errorf("budget overrun: %d execs + %d cull vs %d budget", out.Report.Stats.Execs, out.CullCost, cfgr.Budget)
	}
}

func TestCullReducesQueueVsPath(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	// Use a branch-dense subject where path's queue explodes.
	sub := subjects.Get("lame")
	p, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfgr := strategy.Config{
		Opts:   fuzz.Options{Seed: 2, MapSize: 1 << 12},
		Budget: 40000,
		Seeds:  sub.Seeds,
	}
	pathOut, err := strategy.Run(strategy.Path, p, cfgr)
	if err != nil {
		t.Fatal(err)
	}
	cullOut, err := strategy.Run(strategy.Cull, p, cfgr)
	if err != nil {
		t.Fatal(err)
	}
	if cullOut.Report.QueueLen >= pathOut.Report.QueueLen {
		t.Errorf("cull queue %d not smaller than path queue %d",
			cullOut.Report.QueueLen, pathOut.Report.QueueLen)
	}
	t.Logf("queues: path=%d cull=%d", pathOut.Report.QueueLen, cullOut.Report.QueueLen)
}

func TestOpportunisticPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	p := flvProg(t)
	out, err := strategy.RunOpportunistic(p, baseConfig(30000))
	if err != nil {
		t.Fatal(err)
	}
	if out.Phase1 == nil {
		t.Fatal("no phase-1 report")
	}
	if out.Phase1.Stats.Execs == 0 || out.Report.Stats.Execs == 0 {
		t.Error("one phase did not run")
	}
	// Phase budgets roughly split the total.
	if out.Phase1.Stats.Execs < 10000 || out.Phase1.Stats.Execs > 20000 {
		t.Errorf("phase-1 execs = %d, want ~15000", out.Phase1.Stats.Execs)
	}
	// opp's credited report must not include phase-1 crashes: bugs
	// found in phase 2 were rediscovered by the path-aware stage.
	t.Logf("phase1 bugs=%d, opp-credited bugs=%d", len(out.Phase1.Bugs), len(out.Report.Bugs))
}

func TestCullRandomDiffersFromCull(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	p := flvProg(t)
	cfgr := baseConfig(30000)
	cfgr.RoundBudget = 8000
	a, err := strategy.RunCull(p, cfgr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := strategy.RunCullRandom(p, cfgr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds < 2 || b.Rounds < 2 {
		t.Errorf("rounds: cull=%d cull_r=%d", a.Rounds, b.Rounds)
	}
	// Random culling replays nothing, so its cull cost is zero.
	if b.CullCost != 0 {
		t.Errorf("cull_r charged %d cull execs", b.CullCost)
	}
	if a.CullCost == 0 {
		t.Error("cull charged no culling cost")
	}
}

func TestStrategyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	p := flvProg(t)
	run := func() (int, int) {
		out, err := strategy.Run(strategy.Cull, p, baseConfig(20000))
		if err != nil {
			t.Fatal(err)
		}
		return out.Report.QueueLen, len(out.Report.Bugs)
	}
	q1, b1 := run()
	q2, b2 := run()
	if q1 != q2 || b1 != b2 {
		t.Errorf("cull nondeterministic: (%d,%d) vs (%d,%d)", q1, b1, q2, b2)
	}
}

func TestExtensionConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	p := flvProg(t)
	for _, name := range strategy.ExtensionNames {
		out, err := strategy.RunExtension(name, p, baseConfig(15000))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Report.Stats.Execs == 0 || out.Report.QueueLen == 0 {
			t.Errorf("%s: empty campaign", name)
		}
		t.Logf("%-10s execs=%d queue=%d bugs=%d rounds=%d",
			name, out.Report.Stats.Execs, out.Report.QueueLen, len(out.Report.Bugs), out.Rounds)
	}
	// RunExtension must also accept standard names.
	if _, err := strategy.RunExtension(strategy.Path, p, baseConfig(3000)); err != nil {
		t.Errorf("standard name via RunExtension: %v", err)
	}
}

func TestInterleaveAlternates(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	p := flvProg(t)
	cfgr := baseConfig(30000)
	cfgr.RoundBudget = 8000
	out, err := strategy.RunInterleave(p, cfgr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds < 3 {
		t.Errorf("rounds = %d, want >= 3 (alternation needs several rounds)", out.Rounds)
	}
	if out.CullCost == 0 {
		t.Error("interleave did not charge culling costs")
	}
}
