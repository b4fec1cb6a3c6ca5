package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/")

// goldenSnapshot is the fixed campaign state behind the format goldens.
func goldenSnapshot() *Snapshot {
	return &Snapshot{
		Counters: Counters{
			Execs: 12345, Timeouts: 7, CrashExecs: 99, TotalSteps: 4242,
			Cycles: 3, Added: 50, UniqueCrashes: 2, UniqueBugs: 1,
			AFLUniqueCrashes: 5, InternalFaults: 0,
			QueueLen: 40, Favored: 12, PendingTotal: 20, PendingFavored: 2,
			CurItem: 16, MaxDepth: 9,
			CoverageCount: 25, CoverageBits: 30, MapSize: 65536,
			SeedExecs: 10, HavocExecs: 10000, SpliceExecs: 1335, CmplogExecs: 1000,
			RepeatExecs: 321,
		},
		Elapsed: 90 * time.Second,
	}
}

func goldenInfo() Info {
	return Info{
		Banner: "flvmeta/path", Engine: "bytecode", Feedback: "path",
		Instrs: 238, Nops: 6, Seed: 1, Budget: 200000, GoVersion: "go1.24.0", PID: 4242,
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestFuzzerStatsGolden(t *testing.T) {
	got := FormatFuzzerStats(goldenSnapshot(), goldenInfo(), 137.25, 1700000000, 1700000090)
	checkGolden(t, "fuzzer_stats.golden", got)
}

func TestPlotRowGolden(t *testing.T) {
	row := FormatPlotRow(goldenSnapshot(), 137.25, 90)
	checkGolden(t, "plot_row.golden", []byte(PlotHeader+"\n"+row+"\n"))
}

// TestStatusGolden pins the live status line a collector sample
// writes: one single-campaign sample and one fleet aggregate, whose
// line adds the active-worker count.
func TestStatusGolden(t *testing.T) {
	var buf bytes.Buffer
	sample := func(c Counters) {
		clk := newFakeClock()
		r := New(Config{Info: goldenInfo(), Now: clk.now, Status: &buf})
		clk.advance(90 * time.Second)
		r.Publish(c)
		if _, ok := r.Sample(); !ok {
			t.Fatal("sample not taken")
		}
	}
	sample(goldenSnapshot().Counters)
	fleet := Aggregate(goldenSnapshot().Counters, Counters{
		Execs: 9000, QueueLen: 31, CoverageCount: 22, UniqueCrashes: 1, UniqueBugs: 1, MapSize: 65536,
	})
	fleet.FleetWorkers, fleet.FleetActive = 2, 1
	sample(fleet)
	checkGolden(t, "status.golden", buf.Bytes())
}

// TestPlotRowShape pins the AFL++ column contract independent of the
// golden bytes: 13 comma-separated fields, integer relative time first,
// total execs in column 12.
func TestPlotRowShape(t *testing.T) {
	row := FormatPlotRow(goldenSnapshot(), 137.25, 90)
	fields := strings.Split(row, ", ")
	if len(fields) != 13 {
		t.Fatalf("plot row has %d fields, want 13: %q", len(fields), row)
	}
	if fields[0] != "90" || fields[11] != "12345" {
		t.Errorf("relative_time/total_execs = %s/%s, want 90/12345", fields[0], fields[11])
	}
	if len(strings.Split(PlotHeader, ",")) != 13 {
		t.Error("header column count drifted from 13")
	}
}

// TestAFLOutputFresh verifies a fresh state dir gets one header and
// monotone rows, and fuzzer_stats appears atomically alongside.
func TestAFLOutputFresh(t *testing.T) {
	dir := t.TempDir()
	out, err := OpenAFLOutput(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := goldenSnapshot()
	s.Elapsed = 0
	if err := out.Append(s, Point{ExecsPerSec: 10}, goldenInfo()); err != nil {
		t.Fatal(err)
	}
	s2 := goldenSnapshot()
	s2.Elapsed = 2 * time.Second
	s2.Execs = 20000
	if err := out.Append(s2, Point{ExecsPerSec: 20}, goldenInfo()); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	plot := readLines(t, filepath.Join(dir, "plot_data"))
	if len(plot) != 3 || !strings.HasPrefix(plot[0], "#") {
		t.Fatalf("plot_data = %q, want header + 2 rows", plot)
	}
	if !strings.HasPrefix(plot[1], "0, ") || !strings.HasPrefix(plot[2], "2, ") {
		t.Errorf("row times = %q, %q, want 0 and 2", plot[1], plot[2])
	}
	stats, err := os.ReadFile(filepath.Join(dir, "fuzzer_stats"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stats), "execs_done        : 20000") {
		t.Errorf("fuzzer_stats does not reflect the last sample:\n%s", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, "fuzzer_stats.tmp")); !os.IsNotExist(err) {
		t.Error("temp stats file left behind")
	}
}

// TestAFLOutputGaplessResume is the resume contract: reopening a state
// dir appends rows after the old ones — single header, monotone
// relative_time, no gap reset to zero — and a recorder that attaches to
// it adopts the carried base.
func TestAFLOutputGaplessResume(t *testing.T) {
	dir := t.TempDir()

	// First session: rows at 0s and 5s.
	out, err := OpenAFLOutput(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int{0, 5} {
		s := goldenSnapshot()
		s.Elapsed = time.Duration(sec) * time.Second
		if err := out.Append(s, Point{}, goldenInfo()); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	// Second session: a resumed recorder whose own clock restarts at 0.
	clk := newFakeClock()
	r := New(Config{Now: clk.now})
	if err := r.AttachAFLOutput(dir); err != nil {
		t.Fatal(err)
	}
	if r.Elapsed() != 5*time.Second {
		t.Fatalf("resumed recorder base = %v, want 5s (adopted from plot_data)", r.Elapsed())
	}
	clk.advance(2 * time.Second)
	r.Publish(Counters{Execs: 99999})
	if _, ok := r.Sample(); !ok {
		t.Fatal("resumed sample skipped")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	plot := readLines(t, filepath.Join(dir, "plot_data"))
	var rows []string
	headers := 0
	for _, ln := range plot {
		if strings.HasPrefix(ln, "#") {
			headers++
			continue
		}
		rows = append(rows, ln)
	}
	if headers != 1 {
		t.Errorf("plot_data has %d headers, want 1", headers)
	}
	last := int64(-1)
	for _, row := range rows {
		rel, err := strconv.ParseInt(strings.TrimSpace(strings.SplitN(row, ",", 2)[0]), 10, 64)
		if err != nil {
			t.Fatalf("bad row %q: %v", row, err)
		}
		if rel <= last {
			t.Fatalf("relative_time not strictly monotone: %d after %d in %q", rel, last, rows)
		}
		last = rel
	}
	if len(rows) != 3 || last != 7 {
		t.Errorf("rows = %q (last rel %d), want 3 rows ending at 7", rows, last)
	}
}

// TestRelSecClampsStale covers the clamp: a snapshot whose elapsed
// rounds to an already-written second still produces a monotone row.
func TestRelSecClampsStale(t *testing.T) {
	o := &AFLOutput{lastRel: 4, hasRows: true}
	if got := o.RelSec(&Snapshot{Elapsed: 4 * time.Second}); got != 5 {
		t.Errorf("RelSec = %d, want clamp to 5", got)
	}
	if got := o.RelSec(&Snapshot{Elapsed: 9 * time.Second}); got != 9 {
		t.Errorf("RelSec = %d, want 9", got)
	}
}

func TestLastPlotRelMalformed(t *testing.T) {
	dir := t.TempDir()
	if rel, ok := lastPlotRel(filepath.Join(dir, "missing")); ok || rel != 0 {
		t.Error("missing file should yield (0, false)")
	}
	bad := filepath.Join(dir, "plot_data")
	os.WriteFile(bad, []byte("# header only\n\n"), 0o644)
	if rel, ok := lastPlotRel(bad); ok || rel != 0 {
		t.Error("header-only file should yield (0, false)")
	}
	os.WriteFile(bad, []byte("# h\ngarbage, row\n"), 0o644)
	if _, ok := lastPlotRel(bad); ok {
		t.Error("malformed row should yield ok=false")
	}
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(ln) != "" {
			out = append(out, ln)
		}
	}
	return out
}
