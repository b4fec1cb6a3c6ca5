package evalharness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/subjects"
	"repro/internal/triage"
	"repro/internal/vm"
)

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
}

// Table1 renders the paper's Table I: per-subject function counts and
// final queue sizes under the edge and path feedbacks (medians across
// runs).
func (s *SuiteResult) Table1(w io.Writer) {
	fmt.Fprintln(w, "TABLE I — subjects statistics: queue items after fuzzing")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tType\tFunctions\tQueue (edge)\tQueue (path)\t")
	for _, sub := range s.Cfg.Subjects {
		sj := subjects.Get(sub)
		prog := sj.MustProgram()
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t\n",
			sub, sj.TypeLabel, len(prog.Funcs),
			s.medianQueue(sub, strategy.PCGuard),
			s.medianQueue(sub, strategy.Path))
	}
	tw.Flush()
}

func (s *SuiteResult) medianQueue(subject string, f strategy.Name) int {
	var qs []int
	for _, rr := range s.Runs(subject, f) {
		qs = append(qs, rr.Report.QueueLen)
	}
	return stats.MedianInt(qs)
}

// bugCrash formats "bugs (crashes)".
func bugCrash(bugs, crashes int) string { return fmt.Sprintf("%d (%d)", bugs, crashes) }

// Table2 renders Table II: cumulative unique bugs (and unique crashes)
// per fuzzer with the paper's pairwise intersections and subtractions.
func (s *SuiteResult) Table2(w io.Writer) {
	s.bugTable(w, "TABLE II — unique bugs (unique crashes) cumulative across runs",
		[]strategy.Name{strategy.Path, strategy.PCGuard, strategy.Cull, strategy.Opp},
		[][2]strategy.Name{
			{strategy.Path, strategy.PCGuard}, {strategy.Cull, strategy.PCGuard},
			{strategy.Opp, strategy.PCGuard}, {strategy.Opp, strategy.Cull},
		},
		[][2]strategy.Name{
			{strategy.Path, strategy.PCGuard}, {strategy.PCGuard, strategy.Path},
			{strategy.Cull, strategy.PCGuard}, {strategy.PCGuard, strategy.Cull},
			{strategy.Opp, strategy.PCGuard}, {strategy.PCGuard, strategy.Opp},
			{strategy.Opp, strategy.Cull}, {strategy.Cull, strategy.Opp},
		})
}

// Table7 renders Appendix C's Table VII: the path-aware fuzzers against
// PathAFL.
func (s *SuiteResult) Table7(w io.Writer) {
	s.bugTable(w, "TABLE VII — unique bugs vs PathAFL, cumulative across runs",
		[]strategy.Name{strategy.Path, strategy.PathAFL, strategy.Cull, strategy.Opp},
		[][2]strategy.Name{
			{strategy.Path, strategy.PathAFL}, {strategy.Cull, strategy.PathAFL},
			{strategy.Opp, strategy.PathAFL},
		},
		[][2]strategy.Name{
			{strategy.Path, strategy.PathAFL}, {strategy.PathAFL, strategy.Path},
			{strategy.Cull, strategy.PathAFL}, {strategy.PathAFL, strategy.Cull},
			{strategy.Opp, strategy.PathAFL}, {strategy.PathAFL, strategy.Opp},
		})
}

// Table8 renders Appendix C's Table VIII: PathAFL against its AFL base.
func (s *SuiteResult) Table8(w io.Writer) {
	s.bugTable(w, "TABLE VIII — unique bugs, PathAFL vs AFL, cumulative across runs",
		[]strategy.Name{strategy.PathAFL, strategy.AFL},
		[][2]strategy.Name{{strategy.PathAFL, strategy.AFL}},
		[][2]strategy.Name{
			{strategy.PathAFL, strategy.AFL}, {strategy.AFL, strategy.PathAFL},
		})
}

// Table10 renders Appendix D's Table X: the random-culling ablation.
func (s *SuiteResult) Table10(w io.Writer) {
	s.bugTable(w, "TABLE X — culling ablation: path vs cull_r vs cull, cumulative across runs",
		[]strategy.Name{strategy.Path, strategy.CullR, strategy.Cull},
		[][2]strategy.Name{
			{strategy.Path, strategy.CullR}, {strategy.Cull, strategy.CullR},
		},
		[][2]strategy.Name{
			{strategy.Path, strategy.CullR}, {strategy.CullR, strategy.Path},
			{strategy.Cull, strategy.CullR}, {strategy.CullR, strategy.Cull},
		})
}

// bugTable is the shared renderer behind Tables II, VII, VIII and X.
func (s *SuiteResult) bugTable(w io.Writer, title string, singles []strategy.Name, inters, subs [][2]strategy.Name) {
	fmt.Fprintln(w, title)
	tw := newTab(w)
	var hdr strings.Builder
	hdr.WriteString("Benchmark\t")
	for _, f := range singles {
		fmt.Fprintf(&hdr, "%s\t", f)
	}
	for _, p := range inters {
		fmt.Fprintf(&hdr, "%s∩%s\t", p[0], p[1])
	}
	for _, p := range subs {
		fmt.Fprintf(&hdr, "%s\\%s\t", p[0], p[1])
	}
	fmt.Fprintln(tw, hdr.String())

	type cell struct{ bugs, crashes int }
	totals := make(map[string]*cell)
	cellKeyS := func(f strategy.Name) string { return "s:" + string(f) }
	cellKeyI := func(p [2]strategy.Name) string { return "i:" + string(p[0]) + ":" + string(p[1]) }
	cellKeyD := func(p [2]strategy.Name) string { return "d:" + string(p[0]) + ":" + string(p[1]) }

	addTotal := func(key string, bugs, crashes int) {
		c := totals[key]
		if c == nil {
			c = &cell{}
			totals[key] = c
		}
		c.bugs += bugs
		c.crashes += crashes
	}

	for _, sub := range s.Cfg.Subjects {
		var row strings.Builder
		fmt.Fprintf(&row, "%s\t", sub)
		bugSets := make(map[strategy.Name]triage.Set[string])
		crashSets := make(map[strategy.Name]triage.Set[uint64])
		need := map[strategy.Name]bool{}
		for _, f := range singles {
			need[f] = true
		}
		for _, p := range append(append([][2]strategy.Name{}, inters...), subs...) {
			need[p[0]], need[p[1]] = true, true
		}
		for f := range need {
			bugSets[f] = s.CumulativeBugs(sub, f)
			crashSets[f] = s.CumulativeCrashes(sub, f)
		}
		for _, f := range singles {
			b, c := bugSets[f].Len(), crashSets[f].Len()
			fmt.Fprintf(&row, "%s\t", bugCrash(b, c))
			addTotal(cellKeyS(f), b, c)
		}
		for _, p := range inters {
			b := triage.Intersect(bugSets[p[0]], bugSets[p[1]]).Len()
			c := triage.Intersect(crashSets[p[0]], crashSets[p[1]]).Len()
			fmt.Fprintf(&row, "%s\t", bugCrash(b, c))
			addTotal(cellKeyI(p), b, c)
		}
		for _, p := range subs {
			b := triage.Subtract(bugSets[p[0]], bugSets[p[1]]).Len()
			c := triage.Subtract(crashSets[p[0]], crashSets[p[1]]).Len()
			fmt.Fprintf(&row, "%s\t", bugCrash(b, c))
			addTotal(cellKeyD(p), b, c)
		}
		fmt.Fprintln(tw, row.String())
	}
	var tot strings.Builder
	tot.WriteString("TOTAL\t")
	for _, f := range singles {
		c := totals[cellKeyS(f)]
		fmt.Fprintf(&tot, "%s\t", bugCrash(c.bugs, c.crashes))
	}
	for _, p := range inters {
		c := totals[cellKeyI(p)]
		fmt.Fprintf(&tot, "%s\t", bugCrash(c.bugs, c.crashes))
	}
	for _, p := range subs {
		c := totals[cellKeyD(p)]
		fmt.Fprintf(&tot, "%s\t", bugCrash(c.bugs, c.crashes))
	}
	fmt.Fprintln(tw, tot.String())
	tw.Flush()
}

// Table3 renders Table III: median queue sizes and ratios vs pcguard
// with the geometric-mean row.
func (s *SuiteResult) Table3(w io.Writer) {
	fmt.Fprintln(w, "TABLE III — median queue sizes and ratios vs pcguard")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tpath\tpcguard\tcull\topp\tpath/pcg\tcull/pcg\topp/pcg\t")
	var rp, rc, ro []float64
	for _, sub := range s.Cfg.Subjects {
		qp := s.medianQueue(sub, strategy.Path)
		qg := s.medianQueue(sub, strategy.PCGuard)
		qc := s.medianQueue(sub, strategy.Cull)
		qo := s.medianQueue(sub, strategy.Opp)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t\n", sub, qp, qg, qc, qo,
			stats.Ratio(float64(qp), float64(qg)),
			stats.Ratio(float64(qc), float64(qg)),
			stats.Ratio(float64(qo), float64(qg)))
		if qg > 0 {
			rp = append(rp, float64(qp)/float64(qg))
			rc = append(rc, float64(qc)/float64(qg))
			ro = append(ro, float64(qo)/float64(qg))
		}
	}
	fmt.Fprintf(tw, "GEOMEAN\t\t\t\t\t%.2f\t%.2f\t%.2f\t\n",
		stats.GeoMean(rp), stats.GeoMean(rc), stats.GeoMean(ro))
	tw.Flush()
}

// Table4 renders Table IV: cumulative edge coverage and set
// subtractions vs pcguard.
func (s *SuiteResult) Table4(w io.Writer) {
	fmt.Fprintln(w, "TABLE IV — edge coverage cumulative across runs, with set subtractions")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tpath\tpcguard\tcull\topp\tpath\\pcg\tcull\\pcg\topp\\pcg\t")
	var tp, tg, tc, to, dp, dc, do int
	for _, sub := range s.Cfg.Subjects {
		ep := s.CumulativeEdges(sub, strategy.Path)
		eg := s.CumulativeEdges(sub, strategy.PCGuard)
		ec := s.CumulativeEdges(sub, strategy.Cull)
		eo := s.CumulativeEdges(sub, strategy.Opp)
		sp := triage.Subtract(ep, eg).Len()
		sc := triage.Subtract(ec, eg).Len()
		so := triage.Subtract(eo, eg).Len()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			sub, ep.Len(), eg.Len(), ec.Len(), eo.Len(), sp, sc, so)
		tp += ep.Len()
		tg += eg.Len()
		tc += ec.Len()
		to += eo.Len()
		dp += sp
		dc += sc
		do += so
	}
	fmt.Fprintf(tw, "TOTAL\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n", tp, tg, tc, to, dp, dc, do)
	tw.Flush()
}

// Table5 renders Appendix A's Table V: input (seed) processing time
// for a large queue, uninstrumented and under edge and path
// instrumentation, on the compiled engine campaigns run. The queues are
// the union of the suite's pcguard run queues.
func (s *SuiteResult) Table5(w io.Writer) {
	fmt.Fprintln(w, "TABLE V — input processing time: uninstrumented, pcguard and path instrumentation")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tnone\tpcguard\tpath\tpcguard/none\tpath/none\tpath/pcguard\t")
	var edgeRatios, pathRatios, ratios []float64
	// Collect the suite's campaign garbage first, so no collection
	// lands in one arm's replays: two fresh suites read path/pcguard
	// above 1.1 on two subjects each without this, none with it.
	runtime.GC()
	for _, sub := range s.Cfg.Subjects {
		var queue [][]byte
		for _, rr := range s.Runs(sub, strategy.PCGuard) {
			queue = append(queue, rr.Report.Queue...)
		}
		if len(queue) == 0 {
			continue
		}
		t, err := replayArms(sub, queue)
		if err != nil {
			fmt.Fprintf(tw, "%s\terror: %v\t\t\t\t\t\t\n", sub, err)
			continue
		}
		none, te, tp := float64(t[0]), float64(t[1]), float64(t[2])
		edgeRatios = append(edgeRatios, te/none)
		pathRatios = append(pathRatios, tp/none)
		ratios = append(ratios, tp/te)
		fmt.Fprintf(tw, "%s\t%.3fms\t%.3fms\t%.3fms\t%.2f\t%.2f\t%.2f\t\n",
			sub, none/1e6, te/1e6, tp/1e6, te/none, tp/none, tp/te)
	}
	fmt.Fprintf(tw, "GEOMEAN\t\t\t\t%.2f\t%.2f\t%.2f\t\n",
		stats.GeoMean(edgeRatios), stats.GeoMean(pathRatios), stats.GeoMean(ratios))
	tw.Flush()
}

// table5Rounds is how many times each Table V arm replays its queue.
const table5Rounds = 7

// replayArms times one subject's queue under Table V's three arms:
// the uninstrumented (ProbeNone) lowering, edge and path. Each arm
// replays on its own machine. The arms take turns, starting one arm
// later each round, and each keeps its fastest of table5Rounds
// replays, since noise on a shared host only ever adds time.
func replayArms(subject string, queue [][]byte) ([3]int64, error) {
	var best [3]int64
	prog, err := subjects.Get(subject).Program()
	if err != nil {
		return best, err
	}
	edge, _ := instrument.CompiledFor(instrument.FeedbackEdge, prog, instrument.Config{})
	path, _ := instrument.CompiledFor(instrument.FeedbackPath, prog, instrument.Config{})
	var maps [3]*coverage.Map
	var machines [3]*bytecode.Machine
	for i, cp := range []*bytecode.Program{bytecode.Compile(prog, bytecode.Spec{Kind: bytecode.ProbeNone}), edge, path} {
		maps[i] = coverage.NewMap(coverage.DefaultMapSize)
		machines[i] = bytecode.NewMachine(cp, maps[i], vm.DefaultLimits())
	}
	for r := 0; r < table5Rounds; r++ {
		for k := range machines {
			i := (r + k) % len(machines)
			if ns := ReplayTimed(machines[i], maps[i], queue); best[i] == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best, nil
}

// Table6 renders Appendix B's Table VI: median per-run unique bugs and
// the same pairwise columns as Table II, computed per run index and
// medianed.
func (s *SuiteResult) Table6(w io.Writer) {
	fmt.Fprintln(w, "TABLE VI — median unique bugs per run with pairwise comparisons")
	tw := newTab(w)
	singles := []strategy.Name{strategy.Path, strategy.PCGuard, strategy.Cull, strategy.Opp}
	inters := [][2]strategy.Name{
		{strategy.Path, strategy.PCGuard}, {strategy.Cull, strategy.PCGuard},
		{strategy.Opp, strategy.PCGuard}, {strategy.Opp, strategy.Cull},
	}
	subs := [][2]strategy.Name{
		{strategy.Path, strategy.PCGuard}, {strategy.PCGuard, strategy.Path},
		{strategy.Cull, strategy.PCGuard}, {strategy.PCGuard, strategy.Cull},
		{strategy.Opp, strategy.PCGuard}, {strategy.PCGuard, strategy.Opp},
		{strategy.Opp, strategy.Cull}, {strategy.Cull, strategy.Opp},
	}
	var hdr strings.Builder
	hdr.WriteString("Benchmark\t")
	for _, f := range singles {
		fmt.Fprintf(&hdr, "%s\t", f)
	}
	for _, p := range inters {
		fmt.Fprintf(&hdr, "%s∩%s\t", p[0], p[1])
	}
	for _, p := range subs {
		fmt.Fprintf(&hdr, "%s\\%s\t", p[0], p[1])
	}
	fmt.Fprintln(tw, hdr.String())

	nCols := len(singles) + len(inters) + len(subs)
	colTotals := make([]int, nCols)
	for _, sub := range s.Cfg.Subjects {
		var row strings.Builder
		fmt.Fprintf(&row, "%s\t", sub)
		col := 0
		emit := func(vals []int) {
			m := stats.MedianInt(vals)
			fmt.Fprintf(&row, "%d\t", m)
			colTotals[col] += m
			col++
		}
		perRunBugs := func(f strategy.Name, r int) triage.Set[string] {
			runs := s.Runs(sub, f)
			if r >= len(runs) || runs[r] == nil {
				return triage.NewSet[string]()
			}
			return triage.BugSet(runs[r].Report)
		}
		for _, f := range singles {
			var vals []int
			for r := 0; r < s.Cfg.Runs; r++ {
				vals = append(vals, perRunBugs(f, r).Len())
			}
			emit(vals)
		}
		for _, p := range inters {
			var vals []int
			for r := 0; r < s.Cfg.Runs; r++ {
				vals = append(vals, triage.Intersect(perRunBugs(p[0], r), perRunBugs(p[1], r)).Len())
			}
			emit(vals)
		}
		for _, p := range subs {
			var vals []int
			for r := 0; r < s.Cfg.Runs; r++ {
				vals = append(vals, triage.Subtract(perRunBugs(p[0], r), perRunBugs(p[1], r)).Len())
			}
			emit(vals)
		}
		fmt.Fprintln(tw, row.String())
	}
	var tot strings.Builder
	tot.WriteString("TOTAL\t")
	for _, v := range colTotals {
		fmt.Fprintf(&tot, "%d\t", v)
	}
	fmt.Fprintln(tw, tot.String())
	tw.Flush()
}

// Table9 renders Appendix C's Table IX: crashes under AFL's original
// uniqueness notion vs stack-hash unique crashes, for PathAFL and AFL.
func (s *SuiteResult) Table9(w io.Writer) {
	fmt.Fprintln(w, "TABLE IX — crashes (AFL uniqueness notion) and unique crashes (stack hash)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tpathafl crashes\tpathafl unique\tafl crashes\tafl unique\t")
	var tpc, tpu, tac, tau int64
	for _, sub := range s.Cfg.Subjects {
		var pc, ac int64
		for _, rr := range s.Runs(sub, strategy.PathAFL) {
			pc += rr.Report.Stats.AFLUniqueCrashes
		}
		for _, rr := range s.Runs(sub, strategy.AFL) {
			ac += rr.Report.Stats.AFLUniqueCrashes
		}
		pu := int64(s.CumulativeCrashes(sub, strategy.PathAFL).Len())
		au := int64(s.CumulativeCrashes(sub, strategy.AFL).Len())
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t\n", sub, pc, pu, ac, au)
		tpc += pc
		tpu += pu
		tac += ac
		tau += au
	}
	fmt.Fprintf(tw, "TOTAL\t%d\t%d\t%d\t%d\t\n", tpc, tpu, tac, tau)
	tw.Flush()
}

// Figure2 renders the queue-size-over-time comparison of path, cull,
// opp and pcguard on one subject (run 0), as an ASCII series: each
// column is the queue length at a fraction of that run's executions.
func (s *SuiteResult) Figure2(w io.Writer, subject string) {
	fmt.Fprintf(w, "FIGURE 2 — queue size over time (%s, run 0)\n", subject)
	fuzzers := []strategy.Name{strategy.Path, strategy.Cull, strategy.Opp, strategy.PCGuard}
	reports := make([]*fuzz.Report, len(fuzzers))
	curves := make([][]progress, len(fuzzers))
	for i, f := range fuzzers {
		if runs := s.Runs(subject, f); len(runs) > 0 && runs[0] != nil {
			reports[i] = runs[0].Report
			curves[i] = progressOf(reports[i])
		}
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "execs%\tpath\tcull\topp\tpcguard\t")
	const buckets = 16
	for b := 1; b <= buckets; b++ {
		frac := float64(b) / buckets
		fmt.Fprintf(tw, "%d%%\t", int(frac*100))
		for i, r := range reports {
			if r == nil {
				fmt.Fprint(tw, "-\t")
				continue
			}
			at := int64(frac * float64(r.Stats.Execs))
			fmt.Fprintf(tw, "%d\t", progressAt(curves[i], at).QueueLen)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintf(w, "(cull's sawtooth and opp's mid-run feedback switch are the paper's Fig. 2 shapes)\n")
}

// Figure3 renders the Venn decompositions of cumulative unique bugs:
// path vs pcguard, {cull, opp} vs pcguard, and path vs cull vs opp.
func (s *SuiteResult) Figure3(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 3 — Venn decompositions of unique bugs across all benchmarks")
	all := func(f strategy.Name) triage.Set[string] {
		out := triage.NewSet[string]()
		for _, sub := range s.Cfg.Subjects {
			for k := range s.CumulativeBugs(sub, f) {
				out.Add(k)
			}
		}
		return out
	}
	path, pcg, cull, opp := all(strategy.Path), all(strategy.PCGuard), all(strategy.Cull), all(strategy.Opp)

	v := triage.Venn(path, pcg)
	fmt.Fprintf(w, "  path vs pcguard:  path-only %d | common %d | pcguard-only %d\n", v.OnlyA, v.Common, v.OnlyB)
	v3 := triage.Venn3(cull, opp, pcg)
	fmt.Fprintf(w, "  cull vs opp vs pcguard: cull-only %d, opp-only %d, pcguard-only %d, cull∩opp %d, cull∩pcg %d, opp∩pcg %d, all %d\n",
		v3.OnlyA, v3.OnlyB, v3.OnlyC, v3.AB, v3.AC, v3.BC, v3.ABC)
	w3 := triage.Venn3(path, cull, opp)
	fmt.Fprintf(w, "  path vs cull vs opp: path-only %d, cull-only %d, opp-only %d, path∩cull %d, path∩opp %d, cull∩opp %d, all %d\n",
		w3.OnlyA, w3.OnlyB, w3.OnlyC, w3.AB, w3.AC, w3.BC, w3.ABC)
}

// ReplayTimed replays a corpus once on mach, whose coverage map is m,
// returning wall-clock nanoseconds including the novelty bookkeeping a
// fuzzer performs per input (classification plus a virgin scan).
// Table V times its arms with it.
func ReplayTimed(mach *bytecode.Machine, m *coverage.Map, queue [][]byte) int64 {
	virgin := coverage.NewVirgin(m.Len())
	start := time.Now()
	for _, in := range queue {
		m.Reset()
		mach.Run("main", in)
		m.ClassifySparse()
		virgin.MergeSparse(m)
	}
	return time.Since(start).Nanoseconds()
}
