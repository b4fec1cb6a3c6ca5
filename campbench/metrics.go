package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker collects failed output checks. Each failure is printed to
// standard error and charges the executions of the campaign or fleet it
// concerns to the failed count, once per unit however many of its
// checks fail.
type checker struct {
	log      io.Writer
	failures int
	execs    map[string]int64
}

func (k *checker) fail(unit string, execs int64, format string, args ...any) {
	k.failures++
	if k.execs == nil {
		k.execs = map[string]int64{}
	}
	k.execs[unit] = max(k.execs[unit], execs)
	fmt.Fprintf(k.log, "campbench: check failed: %s: %s\n", unit, fmt.Sprintf(format, args...))
}

// failedExecs is the executions of every unit that failed a check.
func (k *checker) failedExecs() int64 {
	var n int64
	for _, e := range k.execs {
		n += e
	}
	return n
}

// search holds the deterministic search metrics and the failure
// accounting of one run, computed from the pass-1 campaigns.
type search struct {
	bugs     int64
	edges    int64
	deficits []float64
	// bugExecs is the first-discovery exec index of every (single-phase
	// campaign or fleet worker, bug key) pair.
	bugExecs []int64
	// Known defects, reported as counts.
	overshoot      int64
	fleetOvershoot int64
	unplanted      map[string]bool

	attempted int64
	faults    int64
}

func (b *bench) search() *search {
	s := &search{unplanted: map[string]bool{}}
	for _, c := range b.camps {
		if c.err != nil || c.report == nil {
			s.attempted += c.budget
			continue
		}
		reports := []*fuzz.Report{c.report}
		if c.phase1 != nil {
			reports = append(reports, c.phase1)
		}
		for _, r := range reports {
			b.checkBugs(c.id, c.prog, r, c.budget)
			s.noteUnplanted(c.subject, r)
			s.faults += r.Stats.InternalFaults
		}
		s.bugs += int64(len(c.report.Bugs))
		sets := edgeSets(c.prog, c.report.Queue)
		s.edges += int64(unionSize(sets))
		if c.single() {
			s.deficits = append(s.deficits, deficit(c.report, sets, c.prog.NumEdges()))
			s.noteBugExecs(c.report)
		}
		s.overshoot += max(0, c.charged()-c.budget)
		s.attempted += c.charged()
	}
	for _, fr := range b.fleets {
		if !b.checkFleet(s, fr) {
			continue
		}
		prog := fr.subject.MustProgram()
		s.bugs += int64(len(fr.merged.Bugs))
		var all [][]uint32
		for _, w := range fr.workers {
			sets := edgeSets(prog, w.Queue)
			all = append(all, sets...)
			s.deficits = append(s.deficits, deficit(w, sets, prog.NumEdges()))
			s.noteBugExecs(w)
		}
		s.edges += int64(unionSize(all))
	}
	// The fleets a traced grid run adds for the layers are checked and
	// counted as attempted, but they add nothing to grid's own search
	// metrics.
	for _, fr := range b.layerFleets {
		b.checkFleet(s, fr)
	}
	return s
}

// checkFleet checks a fleet's bug inputs and adds its executions,
// faults and known defects to s. It reports whether the fleet ran.
func (b *bench) checkFleet(s *search, fr *fleetRun) bool {
	if fr.merged == nil {
		s.attempted += durableWorkers * durableBudget
		return false
	}
	b.checkBugs(fr.id, fr.subject.MustProgram(), fr.merged, durableWorkers*durableBudget)
	s.noteUnplanted(fr.subject, fr.merged)
	s.faults += fr.merged.Stats.InternalFaults
	for _, w := range fr.workers {
		s.fleetOvershoot += max(0, w.Stats.Execs-durableBudget)
		s.attempted += w.Stats.Execs
	}
	return true
}

func (s *search) noteBugExecs(r *fuzz.Report) {
	for _, k := range r.BugKeys() {
		s.bugExecs = append(s.bugExecs, r.Bugs[k].FoundAt)
	}
}

// noteUnplanted records found bug keys whose function and fault kind
// match no planted bug of the subject.
func (s *search) noteUnplanted(sub *subjects.Subject, r *fuzz.Report) {
	for key, rec := range r.Bugs {
		planted := false
		for _, bug := range sub.Bugs {
			if bug.WantFunc == rec.Crash.Func && bug.WantKind == rec.Crash.Kind {
				planted = true
				break
			}
		}
		if !planted {
			s.unplanted[sub.Name+" "+key] = true
		}
	}
}

// checkBugs replays every reported bug's kept input on the reference
// interpreter and requires the same bug key.
func (b *bench) checkBugs(id string, prog *cfg.Program, r *fuzz.Report, execs int64) {
	for _, key := range r.BugKeys() {
		rec := r.Bugs[key]
		if rec.Input == nil {
			b.chk.fail(id, execs, "bug %s kept no input", key)
			continue
		}
		res := vm.Run(prog, "main", rec.Input, vm.NullTracer{}, vm.DefaultLimits())
		if res.Status != vm.StatusCrash || res.Crash.BugKey() != key {
			b.chk.fail(id, execs, "bug %s input replays as %v", key, res.Status)
		}
	}
}

// edgeSets replays a queue on the reference interpreter under exact
// edge instrumentation and returns each input's sorted edge IDs. The
// interpreter is independent of the engine under test.
func edgeSets(prog *cfg.Program, queue [][]byte) [][]uint32 {
	size := 64
	for size < prog.NumEdges() {
		size <<= 1
	}
	m := coverage.NewMap(size)
	tr := instrument.NewEdgeTracer(prog, m)
	out := make([][]uint32, len(queue))
	for i, in := range queue {
		m.Reset()
		vm.Run(prog, "main", in, tr, vm.DefaultLimits())
		out[i] = m.Indices()
	}
	return out
}

func unionSize(sets [][]uint32) int {
	seen := map[uint32]bool{}
	for _, s := range sets {
		for _, e := range s {
			seen[e] = true
		}
	}
	return len(seen)
}

// deficit is the time-averaged share of static edges not yet covered
// over a campaign's executions. The curve steps up when a queue entry
// is admitted (Report.Corpus[i].FoundAt) by the edges its input covers.
func deficit(r *fuzz.Report, sets [][]uint32, numEdges int) float64 {
	total := r.Stats.Execs
	if total <= 0 || numEdges == 0 {
		return 1
	}
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.Corpus[order[a]].FoundAt < r.Corpus[order[b]].FoundAt })
	seen := map[uint32]bool{}
	var area float64
	var prev int64
	for _, i := range order {
		t := min(max(r.Corpus[i].FoundAt, 0), total)
		area += float64(numEdges-len(seen)) * float64(t-prev)
		prev = t
		for _, e := range sets[i] {
			seen[e] = true
		}
	}
	area += float64(numEdges-len(seen)) * float64(total-prev)
	return area / (float64(numEdges) * float64(total))
}

// quantile returns the nearest-rank q-quantile of sorted samples and
// how many samples lie strictly beyond it.
func quantile(sorted []int64, q float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return sorted[i], len(sorted) - 1 - i
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// timedTotals sums the executions inside timed units and the fastest
// time of every unit over the passes.
func (b *bench) timedTotals() (execs int64, best time.Duration) {
	for _, c := range b.camps {
		if c.err != nil || c.report == nil {
			continue
		}
		execs += c.timedExecs()
		best += c.times.best()
	}
	for _, fr := range b.fleets {
		if fr.merged == nil {
			continue
		}
		execs += fr.execs
		best += fr.times.best()
	}
	return execs, best
}

// encodeCheckpoint seals a checkpoint of a single-phase campaign's final
// state, as pafuzz writes one.
func encodeCheckpoint(c *camp) ([]byte, error) {
	meta := campaign.Meta{Subject: c.subject.Name, Fuzzer: string(c.config), Seed: c.seed, Budget: c.budget, Entry: "main"}
	return (&campaign.Checkpoint{Meta: meta, Snap: c.final}).Encode()
}

// resumeOne decodes a sealed checkpoint and restores the fuzzer from it.
func (b *bench) resumeOne(c *camp, data []byte) (rs resumeSample, err error) {
	var ck *campaign.Checkpoint
	rs.decode = b.span(c.id, "campaign", "campaign.DecodeCheckpoint", func() { ck, err = campaign.DecodeCheckpoint(data) })
	if err != nil {
		return rs, err
	}
	var f *fuzz.Fuzzer
	rs.restore = b.span(c.id, "fuzz", "fuzz.Restore", func() { f, err = fuzz.Restore(c.prog, c.opts, ck.Snap) })
	if err == nil && f.StatsSnapshot() != c.stats {
		err = fmt.Errorf("restored stats differ from the campaign's")
	}
	return rs, err
}

// gated are the end-to-end metrics BENCHMARK.json bounds, the ones the
// JSON line carries. The others spread across workload seeds by more
// than the largest bound allows (README.md) and are printed only.
var gated = []string{"execs_per_s", "setup_s", "resume_s", "bugs_found", "edges_covered", "cov_deficit"}

// result runs the remaining output checks, assembles the JSON result
// and prints the human-readable table. The verdict is taken only after
// every check has run, the traced run's replays included.
func (b *bench) result(out io.Writer) (*result, error) {
	s := b.search()
	var layers map[string]metric
	var attribution bytes.Buffer
	if b.trace {
		var err error
		if layers, err = b.layers(s, &attribution); err != nil {
			return nil, err
		}
	}
	execs, best := b.timedTotals()
	res := &result{Attempted: max(1, s.attempted), Failed: s.faults + b.chk.failedExecs()}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = b.chk.failures == 0 && res.Failed == 0

	sorted := append([]int64(nil), s.bugExecs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p50, _ := quantile(sorted, 0.5)
	p90, beyond90 := quantile(sorted, 0.9)
	e2e := map[string]metric{
		"execs_per_s":      {float64(execs) / best.Seconds(), "execs/s"},
		"setup_s":          {b.setup.best().Seconds(), "s"},
		"resume_s":         {b.resumeTotal().total().Seconds(), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"bugs_found":       {float64(s.bugs), "count"},
		"edges_covered":    {float64(s.edges), "count"},
		"cov_deficit":      {medianFloat(s.deficits), "fraction"},
		"execs_to_bug_p50": {float64(p50), "execs"},
	}

	fmt.Fprintf(out, "workload %s  seed %d  passes %d  campaigns %d  fleets %d\n", b.w.name, b.seed, b.passes, len(b.camps), len(b.fleets))
	res.Metrics = map[string]metric{}
	for _, name := range sortedKeys(e2e) {
		note := " (not gated)"
		if slices.Contains(gated, name) {
			res.Metrics[name] = e2e[name]
			note = ""
		}
		fmt.Fprintf(out, "  %-22s %16.6g %s%s\n", name, e2e[name].Value, e2e[name].Unit, note)
	}
	fmt.Fprintf(out, "  %-22s %16d samples\n", "execs_to_bug (n)", len(sorted))
	if beyond90 >= 10 {
		fmt.Fprintf(out, "  %-22s %16d execs\n", "execs_to_bug_p90", p90)
	} else {
		fmt.Fprintf(out, "  %-22s %16s (fewer than 10 samples beyond p90)\n", "execs_to_bug_p90", "n/a")
	}
	fmt.Fprintf(out, "  %-22s %16.6g fraction (%d of %d execs)\n", "fail_rate", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(out, "  known defects: fuzz.overshoot_execs %d  fleet.overshoot_execs %d  fuzz.unplanted_bug_keys %d\n",
		s.overshoot, s.fleetOvershoot, len(s.unplanted))
	for _, k := range sortedKeys(s.unplanted) {
		fmt.Fprintf(out, "    unplanted: %s\n", k)
	}

	if b.trace {
		out.Write(attribution.Bytes())
		res.Metrics = layers
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
