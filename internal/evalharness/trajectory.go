package evalharness

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// curvesDir is the StateDir subdirectory holding per-run trajectory
// curves: one CSV per campaign, derived from the report's provenance
// (the Figure 2 machinery), so coverage-over-time plots can be
// regenerated without re-running anything.
const curvesDir = "curves"

// progress is a campaign's state at one execution count.
type progress struct {
	Execs    int64
	QueueLen int
	// Coverage counts the coverage-map cells some queue entry was first
	// to touch (the final value is Report.MapCount).
	Coverage int
	// Bugs counts the ground-truth bugs found.
	Bugs int
}

// progressOf derives a campaign's trajectory from its report's
// provenance in one pass: one point per queue admission or first bug
// discovery, in exec order. The queue length is the ID of the last
// admitted entry plus one and coverage the running sum of FirstCells;
// both restart at an ID-0 entry, the first entry of a culling round.
// The corpus must be in admission order, as a single fuzzer's and a
// round driver's reports are.
func progressOf(r *fuzz.Report) []progress {
	if r == nil {
		return nil
	}
	bugs := make([]int64, 0, len(r.Bugs))
	for _, rec := range r.Bugs {
		bugs = append(bugs, rec.FoundAt)
	}
	slices.Sort(bugs)
	var out []progress
	var cur progress
	for i, k := 0, 0; i < len(r.Corpus) || k < len(bugs); {
		if k == len(bugs) || i < len(r.Corpus) && r.Corpus[i].FoundAt <= bugs[k] {
			m := r.Corpus[i]
			if m.ID == 0 {
				cur.Coverage = 0
			}
			cur.Execs, cur.QueueLen = m.FoundAt, m.ID+1
			cur.Coverage += len(m.FirstCells)
			i++
		} else {
			cur.Execs = bugs[k]
			cur.Bugs++
			k++
		}
		if n := len(out); n > 0 && out[n-1].Execs == cur.Execs {
			out[n-1] = cur
		} else {
			out = append(out, cur)
		}
	}
	return out
}

// progressAt returns the state at exec t: the last point at or before
// it, or the empty state before the first.
func progressAt(curve []progress, t int64) progress {
	i := sort.Search(len(curve), func(i int) bool { return curve[i].Execs > t })
	if i == 0 {
		return progress{}
	}
	return curve[i-1]
}

func curveFileName(subject string, f strategy.Name, run int) string {
	return fmt.Sprintf("%s_%s_%03d.csv", campaign.SanitizeName(subject), campaign.SanitizeName(string(f)), run)
}

// CurveCSV renders one run's coverage-over-time curve as CSV, one row
// per queue admission or first bug discovery.
func CurveCSV(rr *RunResult) []byte {
	var b strings.Builder
	b.WriteString("execs,queue_len,coverage,unique_bugs\n")
	for _, p := range progressOf(rr.Report) {
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", p.Execs, p.QueueLen, p.Coverage, p.Bugs)
	}
	return []byte(b.String())
}

// saveCurve persists one run's trajectory curve under StateDir/curves.
func saveCurve(cfg Config, rr *RunResult) error {
	dir := filepath.Join(cfg.StateDir, curvesDir)
	if err := cfg.FS.MkdirAll(dir); err != nil {
		return err
	}
	path := filepath.Join(dir, curveFileName(rr.Subject, rr.Fuzzer, rr.Run))
	return campaign.WriteFileAtomic(cfg.FS, path, CurveCSV(rr))
}

// trajectoryFractions are the budget checkpoints the trajectory table
// reports, as fractions of the per-run execution budget.
var trajectoryFractions = []float64{0.10, 0.25, 0.50, 0.75, 1.00}

// Trajectory prints the paper-style coverage-over-time table: for every
// fuzzer, the total (summed over subjects) median-across-runs coverage
// at fixed fractions of the execution budget. It is the tabular form of
// the paper's coverage-growth figures: a fuzzer that finds its coverage
// early dominates the left columns even when totals converge.
func (s *SuiteResult) Trajectory(w io.Writer) {
	fmt.Fprintln(w, "TRAJECTORY — median coverage (map indices) at budget fractions, summed over subjects")
	tw := newTab(w)
	fmt.Fprint(tw, "Fuzzer\t")
	for _, fr := range trajectoryFractions {
		fmt.Fprintf(tw, "%d%%\t", int(fr*100))
	}
	fmt.Fprintln(tw, "final bugs\t")
	for _, f := range s.Cfg.Fuzzers {
		fmt.Fprintf(tw, "%s\t", f)
		for _, fr := range trajectoryFractions {
			at := int64(fr * float64(s.Cfg.Budget))
			total := 0
			for _, sub := range s.Cfg.Subjects {
				var covs []int
				for _, rr := range s.Runs(sub, f) {
					if rr != nil {
						covs = append(covs, progressAt(progressOf(rr.Report), at).Coverage)
					}
				}
				total += stats.MedianInt(covs)
			}
			fmt.Fprintf(tw, "%d\t", total)
		}
		fmt.Fprintf(tw, "%d\t\n", s.TotalBugs(f).Len())
	}
	tw.Flush()
}
