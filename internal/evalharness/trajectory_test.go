package evalharness

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/journal"
	"repro/internal/strategy"
)

// admit is a provenance record of queue entry id, admitted at exec at
// and first to touch cells coverage-map cells.
func admit(id int, at int64, cells int) journal.CorpusMeta {
	return journal.CorpusMeta{ID: id, FoundAt: at, FirstCells: make([]uint32, cells)}
}

// corpusRun is a run whose report carries the given provenance and
// bugs (key to first discovery exec).
func corpusRun(subject string, f strategy.Name, corpus []journal.CorpusMeta, bugs map[string]int64) *RunResult {
	r := &fuzz.Report{Corpus: corpus, Bugs: map[string]*fuzz.CrashRec{}}
	for k, at := range bugs {
		r.Bugs[k] = &fuzz.CrashRec{Count: 1, FoundAt: at}
	}
	return &RunResult{Subject: subject, Fuzzer: f, Report: r}
}

func TestCurveCSV(t *testing.T) {
	rr := corpusRun("flvmeta", strategy.Path,
		[]journal.CorpusMeta{admit(0, 10, 3), admit(1, 100, 2), admit(2, 200, 4)},
		map[string]int64{"f:1:abort": 150})
	want := "execs,queue_len,coverage,unique_bugs\n" +
		"10,1,3,0\n100,2,5,0\n150,2,5,1\n200,3,9,1\n"
	if got := string(CurveCSV(rr)); got != want {
		t.Errorf("curve =\n%s\nwant\n%s", got, want)
	}
	// Nil report renders just the header instead of panicking.
	if got := string(CurveCSV(&RunResult{})); !strings.HasPrefix(got, "execs,") || strings.Count(got, "\n") != 1 {
		t.Errorf("nil-report curve = %q", got)
	}
}

func TestCoverageAt(t *testing.T) {
	rr := corpusRun("s", strategy.Path,
		[]journal.CorpusMeta{admit(0, 100, 5), admit(1, 200, 4), admit(2, 300, 3)}, nil)
	curve := progressOf(rr.Report)
	for _, c := range []struct {
		at   int64
		want int
	}{{50, 0}, {100, 5}, {250, 9}, {300, 12}, {9999, 12}} {
		if got := progressAt(curve, c.at).Coverage; got != c.want {
			t.Errorf("coverage at %d = %d, want %d", c.at, got, c.want)
		}
	}
	if progressOf(nil) != nil || progressAt(nil, 100) != (progress{}) {
		t.Error("nil guards broken")
	}
}

// TestProgressRestartsEachRound: in a culling campaign's merged report
// each round's corpus starts again at ID 0, so queue length and
// coverage restart there, while unique bugs keep counting.
func TestProgressRestartsEachRound(t *testing.T) {
	rr := corpusRun("s", strategy.Cull,
		[]journal.CorpusMeta{
			admit(0, 1, 3), admit(1, 50, 2), admit(2, 80, 1), // round 0
			admit(0, 101, 2), admit(1, 150, 1), // round 1
		},
		map[string]int64{"f:1:abort": 60, "g:2:abort": 120})
	curve := progressOf(rr.Report)
	for _, c := range []struct {
		at   int64
		want progress
	}{
		{80, progress{Execs: 80, QueueLen: 3, Coverage: 6, Bugs: 1}},
		{101, progress{Execs: 101, QueueLen: 1, Coverage: 2, Bugs: 1}},
		{149, progress{Execs: 120, QueueLen: 1, Coverage: 2, Bugs: 2}},
		{150, progress{Execs: 150, QueueLen: 2, Coverage: 3, Bugs: 2}},
	} {
		if got := progressAt(curve, c.at); got != c.want {
			t.Errorf("progress at %d = %+v, want %+v", c.at, got, c.want)
		}
	}
}

func TestTrajectoryTable(t *testing.T) {
	cfg := Config{
		Subjects: []string{"s"},
		Fuzzers:  []strategy.Name{strategy.Path},
		Runs:     1,
		Budget:   1000,
	}
	sr := &SuiteResult{Cfg: cfg, Results: map[string]map[strategy.Name][]*RunResult{
		"s": {strategy.Path: {corpusRun("s", strategy.Path,
			[]journal.CorpusMeta{admit(0, 100, 5), admit(1, 500, 4), admit(2, 1000, 3)}, nil)}},
	}}
	var b strings.Builder
	sr.Trajectory(&b)
	out := b.String()
	if !strings.Contains(out, "TRAJECTORY") || !strings.Contains(out, "path") {
		t.Fatalf("trajectory output missing parts:\n%s", out)
	}
	// At 10% of budget (100 execs) coverage is 5; at 100% it is 12.
	fields := strings.Fields(strings.Split(out, "path")[1])
	if len(fields) < 6 {
		t.Fatalf("trajectory row too short: %q", fields)
	}
	if fields[0] != "5" || fields[4] != "12" {
		t.Errorf("trajectory row = %v, want 10%%=5 and 100%%=12", fields[:5])
	}
}

// TestSuiteWritesCurves runs a tiny durable suite and checks each run's
// coverage curve lands in StateDir/curves as parseable CSV.
func TestSuiteWritesCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	dir := t.TempDir()
	sr, err := RunSuite(durableCfg(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(filepath.Join(dir, curvesDir))
	if err != nil {
		t.Fatalf("no curves directory: %v", err)
	}
	// 1 subject x 2 fuzzers x 2 runs.
	if len(names) != 4 {
		t.Fatalf("found %d curve files, want 4: %v", len(names), names)
	}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, curvesDir, n.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Fatalf("curve %s has no rows", n.Name())
		}
		last := strings.Split(lines[len(lines)-1], ",")
		execs, err := strconv.ParseInt(last[0], 10, 64)
		if err != nil || execs <= 0 {
			t.Fatalf("curve %s last row unparseable: %q", n.Name(), lines[len(lines)-1])
		}
	}
	// Provenance satellite: the suite records environment + duration.
	if sr.GoVersion == "" || sr.Elapsed <= 0 {
		t.Errorf("suite provenance missing: goversion=%q elapsed=%v", sr.GoVersion, sr.Elapsed)
	}
	var b strings.Builder
	sr.Summary(&b)
	if !strings.Contains(b.String(), "environment: go") {
		t.Errorf("summary does not report environment:\n%s", b.String())
	}
}
