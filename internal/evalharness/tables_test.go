package evalharness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/lang"
	"repro/internal/strategy"
	"repro/internal/triage"
	"repro/internal/vm"
)

// fabricate builds a SuiteResult from hand-written bug/crash/queue data
// so the table arithmetic can be tested without running campaigns.
func fabricate(t *testing.T) *SuiteResult {
	t.Helper()
	cfg := Config{
		Subjects: []string{"alpha", "beta"},
		Fuzzers:  []strategy.Name{strategy.Path, strategy.PCGuard, strategy.Cull, strategy.Opp, strategy.PathAFL, strategy.AFL, strategy.CullR},
		Runs:     2,
	}
	sr := &SuiteResult{Cfg: cfg, Results: map[string]map[strategy.Name][]*RunResult{}}
	mkCrash := func(fn string, line int) *vm.Crash {
		return &vm.Crash{
			Kind:  vm.KindAbort,
			Func:  fn,
			Pos:   lang.Pos{Line: line, Col: 1},
			Stack: []vm.Frame{{Func: fn, Pos: lang.Pos{Line: line, Col: 1}}},
		}
	}
	mkRun := func(queue int, edges []uint32, bugs ...string) *RunResult {
		rep := &fuzz.Report{
			QueueLen: queue,
			Bugs:     map[string]*fuzz.CrashRec{},
		}
		for _, b := range bugs {
			// The function name alone identifies a fabricated bug; a
			// fixed line keeps "bugC" the same key in every run.
			c := mkCrash(b, 1)
			rec := &fuzz.CrashRec{Crash: c, Count: 1}
			rep.Bugs[c.BugKey()] = rec
			rep.Crashes = append(rep.Crashes, rec)
		}
		rep.Stats.Execs = 100
		es := triage.NewSet[uint32]()
		for _, e := range edges {
			es.Add(e)
		}
		return &RunResult{Report: rep, EdgeSet: es}
	}
	for _, sub := range cfg.Subjects {
		sr.Results[sub] = map[strategy.Name][]*RunResult{}
		for _, f := range cfg.Fuzzers {
			sr.Results[sub][f] = []*RunResult{
				mkRun(10, []uint32{1, 2, 3}),
				mkRun(20, []uint32{2, 3, 4}),
			}
		}
	}
	// alpha: path finds bugA+bugB across runs, pcguard finds bugB+bugC.
	sr.Results["alpha"][strategy.Path][0] = mkRun(30, []uint32{1, 2}, "bugA")
	sr.Results["alpha"][strategy.Path][1] = mkRun(50, []uint32{2, 5}, "bugB")
	sr.Results["alpha"][strategy.PCGuard][0] = mkRun(10, []uint32{1, 2, 3}, "bugB", "bugC")
	sr.Results["alpha"][strategy.PCGuard][1] = mkRun(12, []uint32{1, 3}, "bugC")
	return sr
}

func TestCumulativeSetArithmetic(t *testing.T) {
	sr := fabricate(t)
	path := sr.CumulativeBugs("alpha", strategy.Path)
	pcg := sr.CumulativeBugs("alpha", strategy.PCGuard)
	if path.Len() != 2 || pcg.Len() != 2 {
		t.Fatalf("cumulative sizes: path=%d pcg=%d", path.Len(), pcg.Len())
	}
	if triage.Intersect(path, pcg).Len() != 1 {
		t.Errorf("intersection wrong")
	}
	if triage.Subtract(path, pcg).Len() != 1 || triage.Subtract(pcg, path).Len() != 1 {
		t.Errorf("subtractions wrong")
	}
	edges := sr.CumulativeEdges("alpha", strategy.Path)
	if edges.Len() != 3 { // {1,2} ∪ {2,5}
		t.Errorf("cumulative edges = %d", edges.Len())
	}
}

func TestMedianQueueLowerMiddle(t *testing.T) {
	sr := fabricate(t)
	// alpha/path queues are 30 and 50: even count reports the lower
	// middle (30).
	if q := sr.medianQueue("alpha", strategy.Path); q != 30 {
		t.Errorf("median queue = %d, want 30", q)
	}
}

func TestFabricatedTablesRender(t *testing.T) {
	sr := fabricate(t)
	var buf bytes.Buffer
	sr.Table2(&buf)
	sr.Table3(&buf)
	sr.Table4(&buf)
	sr.Table6(&buf)
	sr.Table7(&buf)
	sr.Table8(&buf)
	sr.Table9(&buf)
	sr.Table10(&buf)
	sr.Figure3(&buf)
	out := buf.String()
	// Table II row for alpha must contain path's "2 (2)" cell and the
	// pairwise subtraction "1 (...)" cells.
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2 (2)") {
		t.Errorf("Table II cells missing:\n%s", out)
	}
	// Figure 3's first Venn line: path-only 1 | common 1 | pcguard-only 1.
	if !strings.Contains(out, "path-only 1 | common 1 | pcguard-only 1") {
		t.Errorf("Figure 3 decomposition wrong:\n%s", out)
	}
}

func TestTotalBugsAcrossSubjects(t *testing.T) {
	sr := fabricate(t)
	if got := sr.TotalBugs(strategy.Path).Len(); got != 2 {
		t.Errorf("TotalBugs(path) = %d, want 2", got)
	}
}

func TestOppRecoveryArithmetic(t *testing.T) {
	sr := fabricate(t)
	// Give opp a phase-1 report with 2 bugs, one of which phase 2
	// rediscovers.
	p1 := &fuzz.Report{Bugs: map[string]*fuzz.CrashRec{}}
	for _, name := range []string{"x", "y"} {
		c := &vm.Crash{Kind: vm.KindAbort, Func: name, Pos: lang.Pos{Line: 1}}
		p1.Bugs[c.BugKey()] = &fuzz.CrashRec{Crash: c}
	}
	p2 := &fuzz.Report{Bugs: map[string]*fuzz.CrashRec{}, Stats: fuzz.Stats{Execs: 1}}
	cx := &vm.Crash{Kind: vm.KindAbort, Func: "x", Pos: lang.Pos{Line: 1}}
	p2.Bugs[cx.BugKey()] = &fuzz.CrashRec{Crash: cx}
	sr.Results["alpha"][strategy.Opp][0] = &RunResult{Report: p2, Phase1: p1, EdgeSet: triage.NewSet[uint32]()}
	phase1, rec := sr.OppRecovery()
	if phase1 != 2 || rec != 1 {
		t.Errorf("OppRecovery = (%d,%d), want (2,1)", phase1, rec)
	}
}
