package telemetry

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// AFL-compatible emitters: fuzzer_stats and plot_data files in the
// formats AFL++'s afl-plot and afl-whatsup consume, so existing
// plotting tooling works against pafuzz state directories unmodified.
//
// plot_data is append-only with one header line; fuzzer_stats is
// rewritten atomically (temp file + rename) on every sample. On a
// resumed campaign the plot file is opened in append mode and the last
// row's relative_time becomes the new base, so the series stays
// gapless and monotone across the checkpoint boundary.

// PlotHeader is the AFL++ plot_data column header.
const PlotHeader = "# relative_time, cycles_done, cur_item, corpus_count, pending_total, pending_favs, map_size, saved_crashes, saved_hangs, max_depth, execs_per_sec, total_execs, edges_found"

// FormatPlotRow renders one plot_data row. relSec is the campaign's
// relative time in seconds; rate is the sampled execs/sec.
func FormatPlotRow(s *Snapshot, rate float64, relSec int64) string {
	return fmt.Sprintf("%d, %d, %d, %d, %d, %d, %.2f%%, %d, %d, %d, %.2f, %d, %d",
		relSec, s.Cycles, s.CurItem, s.QueueLen, s.PendingTotal, s.PendingFavored,
		100*s.MapDensity(), s.UniqueBugs, s.Timeouts, s.MaxDepth,
		rate, s.Execs, s.CoverageCount)
}

// FormatFuzzerStats renders a fuzzer_stats file. startUnix/nowUnix are
// wall-clock unix seconds (injected so golden tests are deterministic).
func FormatFuzzerStats(s *Snapshot, info Info, rate float64, startUnix, nowUnix int64) []byte {
	var b strings.Builder
	line := func(k string, v any) {
		fmt.Fprintf(&b, "%-18s: %v\n", k, v)
	}
	runTime := nowUnix - startUnix
	if runTime < 0 {
		runTime = 0
	}
	line("start_time", startUnix)
	line("last_update", nowUnix)
	line("run_time", runTime)
	line("fuzzer_pid", info.PID)
	line("cycles_done", s.Cycles)
	line("execs_done", s.Execs)
	line("execs_per_sec", strconv.FormatFloat(rate, 'f', 2, 64))
	line("total_steps", s.TotalSteps)
	line("corpus_count", s.QueueLen)
	line("corpus_favored", s.Favored)
	line("pending_total", s.PendingTotal)
	line("pending_favs", s.PendingFavored)
	line("cur_item", s.CurItem)
	line("max_depth", s.MaxDepth)
	line("map_density", fmt.Sprintf("%.2f%%", 100*s.MapDensity()))
	line("bitmap_cvg", fmt.Sprintf("%.2f%%", 100*s.MapDensity()))
	line("edges_found", s.CoverageCount)
	line("coverage_bits", s.CoverageBits)
	line("saved_crashes", s.UniqueBugs)
	line("unique_crashes", s.UniqueCrashes)
	line("afl_crashes", s.AFLUniqueCrashes)
	line("saved_hangs", s.Timeouts)
	line("total_crashes", s.CrashExecs)
	line("internal_faults", s.InternalFaults)
	line("execs_seed", s.SeedExecs)
	line("execs_havoc", s.HavocExecs)
	line("execs_splice", s.SpliceExecs)
	line("execs_cmplog", s.CmplogExecs)
	line("exec_budget", info.Budget)
	line("rng_seed", info.Seed)
	line("target_mode", info.Engine)
	line("feedback", info.Feedback)
	line("bytecode_instrs", info.Instrs)
	line("go_version", info.GoVersion)
	line("afl_version", "pafuzz-"+Version)
	line("afl_banner", info.Banner)
	return []byte(b.String())
}

// FormatStatus renders the live status line for one sample: the
// snapshot's counters under their fuzzer_stats names, the sampled exec
// rate, and, for a fleet aggregate, how many of its workers are active.
func FormatStatus(s *Snapshot, p Point, info Info) string {
	line := fmt.Sprintf("[pafuzz] %s run_time=%d execs_done=%d execs_per_sec=%.0f corpus_count=%d edges_found=%d saved_crashes=%d unique_crashes=%d saved_hangs=%d target_mode=%s",
		info.Banner, int64(s.Elapsed.Seconds()), s.Execs, p.ExecsPerSec, s.QueueLen,
		s.CoverageCount, s.UniqueBugs, s.UniqueCrashes, s.Timeouts, info.Engine)
	if s.FleetWorkers > 0 {
		line += fmt.Sprintf(" fleet_active=%d/%d", s.FleetActive, s.FleetWorkers)
	}
	return line
}

// Version tags the telemetry schema in fuzzer_stats.
const Version = "4.0"

// AFLOutput manages the fuzzer_stats and plot_data files of one state
// directory.
type AFLOutput struct {
	dir     string
	plot    *os.File
	w       *bufio.Writer
	lastRel int64 // last relative_time written (or resumed past)
	hasRows bool  // plot file already holds data rows
	// startUnix anchors fuzzer_stats run_time. On a fresh campaign it
	// is stamped at open; on resume it is shifted back by the resumed
	// base so run_time stays cumulative.
	startUnix int64
}

// OpenAFLOutput creates dir if needed and opens plot_data for
// appending. When the file already holds rows (a resumed campaign),
// the last row's relative_time is carried forward as the base for new
// rows — the gapless-resume contract.
func OpenAFLOutput(dir string) (*AFLOutput, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "plot_data")
	base, hasRows := lastPlotRel(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	o := &AFLOutput{
		dir:       dir,
		plot:      f,
		w:         bufio.NewWriter(f),
		lastRel:   base,
		hasRows:   hasRows,
		startUnix: time.Now().Unix() - base,
	}
	if !hasRows {
		fmt.Fprintln(o.w, PlotHeader)
	}
	return o, nil
}

// lastPlotRel scans an existing plot_data file for its final row's
// relative_time. Missing, empty, or malformed files yield (0, false).
func lastPlotRel(path string) (int64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	var last string
	for _, ln := range strings.Split(string(data), "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		last = ln
	}
	if last == "" {
		return 0, false
	}
	fields := strings.SplitN(last, ",", 2)
	rel, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
	if err != nil {
		return 0, false
	}
	return rel, true
}

// RelSec maps a snapshot to its plot relative time: elapsed seconds,
// clamped monotone against rows already written (including rows from
// before a resume).
func (o *AFLOutput) RelSec(s *Snapshot) int64 {
	rel := int64(s.Elapsed.Seconds())
	if o.hasRows && rel <= o.lastRel {
		rel = o.lastRel + 1
	}
	return rel
}

// Append writes one plot_data row and rewrites fuzzer_stats.
func (o *AFLOutput) Append(s *Snapshot, p Point, info Info) error {
	rel := o.RelSec(s)
	if _, err := fmt.Fprintln(o.w, FormatPlotRow(s, p.ExecsPerSec, rel)); err != nil {
		return err
	}
	o.lastRel, o.hasRows = rel, true
	if err := o.w.Flush(); err != nil {
		return err
	}
	return o.WriteStats(FormatFuzzerStats(s, info, p.ExecsPerSec, o.startUnix, time.Now().Unix()))
}

// WriteStats atomically replaces the fuzzer_stats file.
func (o *AFLOutput) WriteStats(data []byte) error {
	path := filepath.Join(o.dir, "fuzzer_stats")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Close flushes and closes the plot file.
func (o *AFLOutput) Close() error {
	if err := o.w.Flush(); err != nil {
		o.plot.Close()
		return err
	}
	return o.plot.Close()
}
