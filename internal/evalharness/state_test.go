package evalharness

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/strategy"
)

// countFS counts Create calls so tests can assert a restarted suite
// recomputes nothing. The counter is atomic: suite workers save runs
// and curves concurrently.
type countFS struct {
	campaign.FS
	creates atomic.Int64
}

func (c *countFS) Create(name string) (campaign.File, error) {
	c.creates.Add(1)
	return c.FS.Create(name)
}

func durableCfg(dir string, fs campaign.FS) Config {
	return Config{
		Subjects: []string{"flvmeta"},
		Fuzzers:  []strategy.Name{strategy.Path, strategy.Cull},
		Runs:     2,
		Budget:   8000,
		MapSize:  1 << 13,
		BaseSeed: 3,
		Workers:  2,
		StateDir: dir,
		FS:       fs,
	}
}

// TestSuiteDurability runs a durable suite twice: the restart must
// reload every run from disk (zero new run files) and reproduce the
// first suite's results exactly.
func TestSuiteDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	dir := t.TempDir()

	first, err := RunSuite(durableCfg(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(filepath.Join(dir, runsDir))
	if err != nil || len(names) != 4 {
		t.Fatalf("want 4 persisted runs, got %d (%v)", len(names), err)
	}

	cfs := &countFS{FS: campaign.OSFS{}}
	var progress strings.Builder
	cfg := durableCfg(dir, cfs)
	cfg.Progress = &progress
	second, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfs.creates.Load(); n != 0 {
		t.Errorf("restarted suite wrote %d files, want 0", n)
	}
	if !strings.Contains(progress.String(), "restored") {
		t.Errorf("progress does not mention restored runs:\n%s", progress.String())
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("restored suite differs from the original")
	}
}

// TestSuiteDurabilityRejectsStale verifies a corrupt run file and a
// changed configuration both fall back to recomputation.
func TestSuiteDurabilityRejectsStale(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	dir := t.TempDir()
	cfg := durableCfg(dir, nil)
	cfg.Fuzzers = []strategy.Name{strategy.Path}
	first, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one run file: that run is recomputed, results unchanged.
	path := filepath.Join(dir, runsDir, runFileName("flvmeta", strategy.Path, 0))
	if err := os.Truncate(path, 8); err != nil {
		t.Fatal(err)
	}
	second, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("recomputed run differs after corruption")
	}

	// A different budget must not reuse saved runs.
	cfs := &countFS{FS: campaign.OSFS{}}
	cfg2 := cfg
	cfg2.Budget = 9000
	cfg2.FS = cfs
	if _, err := RunSuite(cfg2); err != nil {
		t.Fatal(err)
	}
	if cfs.creates.Load() == 0 {
		t.Error("changed-budget suite reused stale saved runs")
	}
}

// TestLoadRunRejectsUnversioned: a run file saved before runs carried a
// format version (a round-based run's stamps were then round-relative)
// is a miss, as a run from another configuration is.
func TestLoadRunRejectsUnversioned(t *testing.T) {
	cfg := durableCfg(t.TempDir(), nil).withDefaults()
	rr := &RunResult{Subject: "flvmeta", Fuzzer: strategy.Cull, Report: &fuzz.Report{QueueLen: 3}}
	if err := saveRun(cfg, rr); err != nil {
		t.Fatal(err)
	}
	if loadRun(cfg, rr.Subject, rr.Fuzzer, rr.Run) == nil {
		t.Fatal("a run saved by this build does not load")
	}
	unversioned := struct {
		Subject     string
		Fuzzer      strategy.Name
		Run         int
		Result      RunResult
		Edges       []uint32
		Budget      int64
		RoundBudget int64
		MapSize     int
		BaseSeed    int64
	}{rr.Subject, rr.Fuzzer, rr.Run, *rr, nil, cfg.Budget, cfg.RoundBudget, cfg.MapSize, cfg.BaseSeed}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&unversioned); err != nil {
		t.Fatal(err)
	}
	path := runFilePath(cfg.StateDir, rr.Subject, rr.Fuzzer, rr.Run)
	if err := os.WriteFile(path, campaign.Seal(buf.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	if loadRun(cfg, rr.Subject, rr.Fuzzer, rr.Run) != nil {
		t.Fatal("a run file without a format version was restored")
	}
}
