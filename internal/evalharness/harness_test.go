package evalharness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/strategy"
)

// smallSuite runs a scaled-down evaluation used across the harness
// tests. The budget is tiny compared to the real evaluation; the tests
// only check structure, determinism and the phenomena that appear even
// at small scale.
func smallSuite(t *testing.T, subjectsList []string, fuzzers []strategy.Name, runs int, budget int64) *SuiteResult {
	t.Helper()
	sr, err := RunSuite(Config{
		Subjects: subjectsList,
		Fuzzers:  fuzzers,
		Runs:     runs,
		Budget:   budget,
		MapSize:  1 << 13,
		BaseSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestSuiteRunsAndRendersTables(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	subs := []string{"flvmeta", "jhead"}
	sr := smallSuite(t, subs, strategy.AllNames, 2, 20000)

	for _, sub := range subs {
		for _, f := range strategy.AllNames {
			runs := sr.Runs(sub, f)
			if len(runs) != 2 {
				t.Fatalf("%s/%s: %d runs, want 2", sub, f, len(runs))
			}
			for i, rr := range runs {
				if rr == nil {
					t.Fatalf("%s/%s run %d missing", sub, f, i)
				}
				if rr.Report.Stats.Execs == 0 {
					t.Errorf("%s/%s run %d: no executions", sub, f, i)
				}
			}
		}
	}

	var buf bytes.Buffer
	sr.Table1(&buf)
	sr.Table2(&buf)
	sr.Table3(&buf)
	sr.Table4(&buf)
	sr.Table5(&buf)
	sr.Table6(&buf)
	sr.Table7(&buf)
	sr.Table8(&buf)
	sr.Table9(&buf)
	sr.Table10(&buf)
	sr.Figure2(&buf, "flvmeta")
	sr.Figure3(&buf)
	out := buf.String()
	for _, want := range []string{
		"TABLE I —", "TABLE II —", "TABLE III —", "TABLE IV —", "TABLE V —",
		"TABLE VI —", "TABLE VII —", "TABLE VIII —", "TABLE IX —", "TABLE X —",
		"FIGURE 2 —", "FIGURE 3 —", "GEOMEAN", "TOTAL", "flvmeta", "jhead",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
	if testing.Verbose() {
		t.Log("\n" + out)
	}
}

func TestJheadEasyBugsFoundByAll(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	// jhead's bugs are shallow; the paper reports every fuzzer finds
	// (nearly) all of them. At small scale we require every main
	// configuration to find at least 3 of the 5.
	sr := smallSuite(t, []string{"jhead"},
		[]strategy.Name{strategy.Path, strategy.PCGuard, strategy.Cull}, 2, 60000)
	for _, f := range []strategy.Name{strategy.Path, strategy.PCGuard, strategy.Cull} {
		n := sr.CumulativeBugs("jhead", f).Len()
		if n < 3 {
			t.Errorf("%s found %d jhead bugs, want >= 3", f, n)
		}
		t.Logf("%s: %d bugs", f, n)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	run := func() int {
		sr := smallSuite(t, []string{"flvmeta"}, []strategy.Name{strategy.Path}, 1, 15000)
		return sr.Runs("flvmeta", strategy.Path)[0].Report.QueueLen
	}
	if a, b := run(), run(); a != b {
		t.Errorf("suite not deterministic: queue %d vs %d", a, b)
	}
}

func TestSummaryRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	sr := smallSuite(t, []string{"mp3gain"}, strategy.AllNames, 2, 20000)
	var buf bytes.Buffer
	sr.Summary(&buf)
	out := buf.String()
	for _, want := range []string{"SUMMARY", "cull total", "queue growth", "opp recovered", "edge coverage"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if testing.Verbose() {
		t.Log("\n" + out)
	}
}

func TestCumulativeAccessorsEmpty(t *testing.T) {
	sr := &SuiteResult{Cfg: Config{}.withDefaults(), Results: map[string]map[strategy.Name][]*RunResult{}}
	if sr.Runs("nope", strategy.Path) != nil {
		t.Error("missing subject should return nil runs")
	}
	if sr.CumulativeBugs("nope", strategy.Path).Len() != 0 {
		t.Error("missing subject should have no bugs")
	}
}
