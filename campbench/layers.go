package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// Queue replays time the engine and judge layers on a sample of each
// campaign's final queue: at most replayInputs evenly spaced inputs,
// cut off once they add up to replayMaxSteps, each replay repeated
// replayReps times keeping the fastest.
const (
	replayInputs   = 64
	replayMaxSteps = 4 << 20
	replayReps     = 3
)

// replay is one campaign's queue-replay measurements.
type replay struct {
	n      int
	steps  int64
	engine time.Duration // bytecode.Machine.Run, the campaign's lowering
	none   time.Duration // bytecode.Machine.Run on a ProbeNone lowering
	interp time.Duration // vm.Run with the feedback's tracer
	judge  time.Duration // Map.ClassifySparse + Virgin.MergeSparse
	replan time.Duration // Patchable.Replan (CGT only)
	// full and fast model one execution's engine time as a fixed cost
	// plus a cost per step, fitted to the per-input replay times of
	// the campaign's lowering and of the CGT engine's patched machine.
	full, fast *costModel
}

// costModel is t = perExec + perStep*steps, in nanoseconds.
type costModel struct{ perExec, perStep float64 }

func (m *costModel) at(execs, steps float64) float64 {
	if m == nil {
		return 0
	}
	return m.perExec*execs + m.perStep*steps
}

// fit is the Theil-Sen line through per-input (steps, ns) points, kept
// non-negative: the median of the pairwise slopes, then the median
// intercept. Queue inputs are heavier than the average mutant a
// campaign executes, so the campaign's cost is read off the line at its
// own execution and step counts rather than scaled from the sample. A
// least-squares line would follow the few inputs whose cost is not in
// their steps: an exiv2 input of 146 steps that allocates a large
// buffer took 276 µs against about 0.7 µs for its neighbours, and
// priced the campaign's engine at three times its wall time.
func fit(steps []int64, ns []time.Duration) *costModel {
	var slopes []float64
	for i := range steps {
		for j := i + 1; j < len(steps); j++ {
			if dx := float64(steps[j] - steps[i]); dx != 0 {
				slopes = append(slopes, float64(ns[j]-ns[i])/dx)
			}
		}
	}
	m := &costModel{perStep: max(0, medianFloat(slopes))}
	ys := make([]float64, len(steps))
	for i := range steps {
		ys[i] = float64(ns[i]) - m.perStep*float64(steps[i])
	}
	if m.perExec = medianFloat(ys); m.perExec < 0 {
		for i := range steps {
			ys[i] = float64(ns[i]) / float64(max(steps[i], 1))
		}
		m.perExec, m.perStep = 0, medianFloat(ys)
	}
	return m
}

// timeEach runs every input reps times in a row and returns each
// input's fastest time. Back-to-back runs leave the caches and branch
// predictors as a campaign leaves them, which executes hundreds of
// mutants of one queue entry in a row; cycling through the sample
// instead priced deep's engine above its campaigns' own time.
func timeEach(reps int, inputs [][]byte, run func([]byte)) []time.Duration {
	best := make([]time.Duration, len(inputs))
	runtime.GC()
	for i, in := range inputs {
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			run(in)
			if d := time.Since(t0); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// sampleInputs picks evenly spaced queue inputs.
func sampleInputs(queue [][]byte) [][]byte {
	if len(queue) <= replayInputs {
		return queue
	}
	out := make([][]byte, replayInputs)
	for i := range out {
		out[i] = queue[i*len(queue)/replayInputs]
	}
	return out
}

type cell struct {
	idx   uint32
	count uint8
}

// referenceRun is the reference interpreter the replay check compares
// the engine against; the self-test swaps it to inject a mismatch.
var referenceRun = vm.Run

// replayQueue measures one campaign's layers on its final queue and
// checks that every replayed input gives identical map bytes, steps and
// status on bytecode.Machine.Run and on vm.Run with the feedback's
// tracer; a mismatch fails the campaign's execs.
func (b *bench) replayQueue(id string, execs int64, prog *cfg.Program, fb instrument.Feedback, queue [][]byte, virgin []coverage.VirginCell, cgt bool) (*replay, error) {
	cp, ok := instrument.CompiledFor(fb, prog, instrument.Config{})
	if !ok {
		return nil, fmt.Errorf("%v has no bytecode lowering", fb)
	}
	size := coverage.DefaultMapSize
	lim := vm.DefaultLimits()
	m := coverage.NewMap(size)
	mach := bytecode.NewMachine(cp, m, lim)

	// The sample, with its maps as the engine leaves them, stopped at
	// the step cap.
	refMap := coverage.NewMap(size)
	refTracer, err := instrument.New(fb, prog, refMap, instrument.Config{})
	if err != nil {
		return nil, err
	}
	var inputs [][]byte
	var raw [][]cell
	var steps []int64
	r := &replay{}
	for _, in := range sampleInputs(queue) {
		m.Reset()
		res := mach.Run("main", in)
		var cells []cell
		for _, i := range m.Indices() {
			cells = append(cells, cell{i, m.Bytes()[i]})
		}
		refMap.Reset()
		ref := referenceRun(prog, "main", in, refTracer, lim)
		if ref.Status != res.Status || ref.Steps != res.Steps || !sameCells(refMap, cells) {
			b.chk.fail(id, execs, "input %q: bytecode gives %v/%d steps, the interpreter %v/%d steps or other map bytes",
				in, res.Status, res.Steps, ref.Status, ref.Steps)
		}
		inputs, raw, steps = append(inputs, in), append(raw, cells), append(steps, res.Steps)
		r.steps += res.Steps
		if r.steps >= replayMaxSteps {
			break
		}
	}
	r.n = len(inputs)
	run := func(mc *bytecode.Machine) func([]byte) {
		return func(in []byte) {
			m.Reset()
			mc.Run("main", in)
		}
	}
	b.span(id, "engine", "replay/Machine.Run", func() {
		each := timeEach(replayReps, inputs, run(mach))
		r.engine, r.full = sum(each), fit(steps, each)
	})

	none := bytecode.NewMachine(bytecode.Compile(prog, bytecode.Spec{Kind: bytecode.ProbeNone, Opt: true}), m, lim)
	r.none = sum(timeEach(replayReps, inputs, run(none)))

	b.span(id, "engine", "replay/vm.Run", func() {
		r.interp = sum(timeEach(replayReps, inputs, func(in []byte) {
			refMap.Reset()
			vm.Run(prog, "main", in, refTracer, lim)
		}))
	})

	// Judge: classify and merge every sampled map into a virgin map
	// that has already seen them all (the steady state of a campaign).
	v := coverage.NewVirgin(size)
	maps := make([]*coverage.Map, len(raw))
	load := func() {
		for i, cells := range raw {
			if maps[i] == nil {
				maps[i] = coverage.NewMap(size)
			}
			maps[i].Reset()
			for _, c := range cells {
				maps[i].Add(c.idx)
				maps[i].Bytes()[c.idx] = c.count
			}
		}
	}
	load()
	for _, mm := range maps {
		mm.ClassifySparse()
		v.MergeSparse(mm)
	}
	r.judge = time.Duration(1<<63 - 1)
	b.span(id, "judge", "replay/ClassifySparse+MergeSparse", func() {
		for i := 0; i < replayReps; i++ {
			load()
			runtime.GC()
			t0 := time.Now()
			for _, mm := range maps {
				mm.ClassifySparse()
				v.MergeSparse(mm)
			}
			r.judge = min(r.judge, time.Since(t0))
		}
	})

	if cgt {
		// The CGT engine's fast machine as fuzz.New builds it, planned
		// from the campaign's final virgin map.
		patch := bytecode.NewPatchable(cp, size)
		patch.SetHitBounds(cp.CellHitBounds("main"))
		consumed := coverage.NewBitset(size)
		fv := coverage.NewVirgin(size)
		if err := fv.SetCells(virgin); err != nil {
			return nil, err
		}
		fv.ConsumedInto(consumed, patch.CellMasks())
		r.replan = b.span(id, "cgt", "Patchable.Replan", func() { patch.Replan(consumed) })
		fastLim := lim
		fastLim.MaxCmpObs = 0
		fast := bytecode.NewMachine(patch.Program(), m, fastLim)
		fast.SetElide(consumed)
		b.span(id, "engine", "replay/Machine.Run(cgt)", func() { r.fast = fit(steps, timeEach(replayReps, inputs, run(fast))) })
	}
	return r, nil
}

func sameCells(m *coverage.Map, cells []cell) bool {
	idx := m.Indices()
	if len(idx) != len(cells) {
		return false
	}
	for i, c := range cells {
		if idx[i] != c.idx || m.Bytes()[c.idx] != c.count {
			return false
		}
	}
	return true
}

// layerTotals accumulates the per-layer measurements of a traced run.
type layerTotals struct {
	frontend, lower, calib       time.Duration
	edges, instrs, nops          int64
	execs                        float64 // timed execs, all campaigns
	engineNs, judgeNs, selfNs    float64
	statExecs, steps, timeouts   int64
	added, queue, cmplogExecs    int64
	cmplogNs, fuzzNs             float64
	rEngine, rNone, rInterp      time.Duration
	rSteps                       int64
	mem                          memDelta
	fastExecs, retraces, replans int64
	elided, sites                int64
	rounds, cullExecs            int64
	cullNs                       float64
	ckptNs, ckptBytes            float64
	journalEvents, journalBytes  int64
	syncEpochs, restarts         int64
	traced, untraced             time.Duration
	// negative counts the campaigns whose measured layers add up to
	// more than their wall time; minShare is the smallest fuzz.self
	// share of wall time over all campaigns.
	negative int
	minShare float64
}

// attribution is one campaign's wall time split by layer self time.
type attribution struct {
	id                                         string
	wall, calib, engine, judge, cgt, strat, ck float64
}

func (a attribution) self() float64 {
	return a.wall - a.calib - a.engine - a.judge - a.cgt - a.strat - a.ck
}

// layers runs the replays of the traced run and returns the per-layer
// metrics. It prints each campaign's attribution, whose self times sum
// to its fastest traced time with fuzz.self as the residual, and writes
// the spans to the trace file.
func (b *bench) layers(s *search, out io.Writer) (map[string]metric, error) {
	t := &layerTotals{frontend: b.frontend, lower: b.lower}
	var rows []attribution
	seenSub := map[string]bool{}
	seenLow := map[string]bool{}
	for _, c := range b.camps {
		if c.report == nil {
			continue
		}
		if !seenSub[c.subject.Name] {
			seenSub[c.subject.Name] = true
			t.edges += int64(c.prog.NumEdges())
		}
		if key := c.subject.Name + "/" + c.feedbacks()[0].String(); c.single() && !seenLow[key] {
			seenLow[key] = true
			t.instrs += int64(c.instrs)
			t.nops += int64(c.nops)
		}
		fb := c.feedbacks()[len(c.feedbacks())-1]
		rp, err := b.replayQueue(c.id, c.budget, c.prog, fb, c.report.Queue, c.virgin, c.hasCGT)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", c.id, err)
		}
		execs := float64(c.timedExecs())
		steps := float64(c.timedSteps())
		wall := c.traced.best()
		t.untraced += c.times.best()
		t.traced += wall
		a := attribution{id: c.id, wall: float64(wall + c.calib), calib: float64(c.calib)}
		if rp.fast != nil && c.cgt.FastExecs > 0 {
			// Every execution runs patched; retraced ones run again in
			// full.
			rate := float64(c.cgt.Retraces) / float64(c.cgt.FastExecs)
			a.engine = rp.fast.at(execs, steps) + rate*rp.full.at(execs, steps)
			a.cgt = float64(c.cgt.Replans) * float64(rp.replan)
			t.fastExecs += c.cgt.FastExecs
			t.retraces += c.cgt.Retraces
			t.replans += c.cgt.Replans
			t.elided += int64(c.cgt.ElidedSites)
			t.sites += int64(c.cgt.PatchSites)
		} else {
			a.engine = rp.full.at(execs, steps)
		}
		if rp.n > 0 {
			a.judge = execs * float64(rp.judge) / float64(rp.n)
		}
		if !c.single() {
			// cull culls between rounds; opp strips and culls once.
			culls := int64(c.rounds - 1)
			if c.config == strategy.Opp {
				culls = 1
			}
			d := b.span(c.id, "strategy", "cull replay", func() {
				q := c.report.Queue
				if c.config == strategy.Opp {
					q = fuzz.StripCrashers(c.prog, q, "main", vm.DefaultLimits())
				}
				fuzz.MinimizeCorpus(c.prog, q, "main", vm.DefaultLimits())
			})
			a.strat = float64(culls) * float64(d)
			t.rounds += int64(c.rounds)
			t.cullExecs += c.cullCost
			t.cullNs += a.strat
		}
		t.addCampaign(a, execs, rp)
		rows = append(rows, a)
		t.calib += c.calib
		t.mem.add2(c.mem)
		t.cmplogNs += float64(c.cmplogNs)
		t.fuzzNs += float64(c.cmplogOf)
		reports := []*fuzz.Report{c.report}
		if c.phase1 != nil {
			reports = append(reports, c.phase1)
		}
		for _, r := range reports {
			t.addStats(r)
		}
	}
	for _, fr := range b.fleets {
		if fr.merged == nil {
			continue
		}
		prog := fr.subject.MustProgram()
		t.edges += int64(prog.NumEdges())
		t.instrs += int64(fr.instrs)
		t.nops += int64(fr.nops)
		// Both workers are busy for the fleet's wall time.
		a := attribution{id: fr.id, wall: float64(durableWorkers*fr.traced.best() + fr.calib), calib: float64(fr.calib)}
		var all, allSteps int64
		for _, w := range fr.workers {
			all += w.Stats.Execs
			allSteps += w.Stats.TotalSteps
		}
		for _, w := range fr.workers {
			rp, err := b.replayQueue(fr.id, durableWorkers*durableBudget, prog, instrument.FeedbackPath, w.Queue, nil, false)
			if err != nil {
				return nil, fmt.Errorf("%s: replay: %w", fr.id, err)
			}
			// The worker's share of the executions after calibration.
			share := float64(fr.execs) / float64(all)
			execs := share * float64(w.Stats.Execs)
			a.engine += rp.full.at(execs, share*float64(w.Stats.TotalSteps))
			if rp.n > 0 {
				a.judge += execs * float64(rp.judge) / float64(rp.n)
			}
			t.rEngine += rp.engine
			t.rNone += rp.none
			t.rInterp += rp.interp
			t.rSteps += rp.steps
			t.addStats(w)
		}
		a.ck = t.addDurable(fr)
		t.execs += float64(fr.execs)
		t.engineNs += a.engine
		t.judgeNs += a.judge
		t.selfNs += a.self()
		t.traced += fr.traced.best()
		t.untraced += fr.times.best()
		t.calib += fr.calib
		t.mem.add2(fr.mem)
		rows = append(rows, a)
	}

	for _, fr := range b.layerFleets {
		if fr.merged != nil {
			t.addDurable(fr)
		}
	}

	fmt.Fprintf(out, "attribution (fastest traced time; fuzz.self is the residual):\n")
	fmt.Fprintf(out, "  %-28s %9s %9s %9s %9s %9s %9s %9s %9s\n", "campaign", "wall_s", "calib", "engine", "judge", "cgt", "strategy", "campaign", "fuzz.self")
	var worst string
	for i, a := range rows {
		share := a.self() / a.wall
		if share < 0 {
			t.negative++
		}
		if i == 0 || share < t.minShare {
			t.minShare, worst = share, a.id
		}
		fmt.Fprintf(out, "  %-28s %9.4f %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n", a.id, a.wall/1e9,
			100*a.calib/a.wall, 100*a.engine/a.wall, 100*a.judge/a.wall, 100*a.cgt/a.wall, 100*a.strat/a.wall, 100*a.ck/a.wall, 100*share)
	}
	// fuzz.self is wall time minus the other layers, so the columns
	// sum to the wall time by construction. What can go wrong is the
	// replays pricing a campaign's layers above its wall time.
	fmt.Fprintf(out, "  fuzz.self is negative on %d of %d campaigns (measured layers exceed wall time); smallest share %.1f%% on %s\n",
		t.negative, len(rows), 100*t.minShare, worst)
	if err := b.writeSpans(); err != nil {
		return nil, err
	}
	return t.metrics(s, b.resumeTotal()), nil
}

func (d *memDelta) add2(o memDelta) {
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.pauseNs += o.pauseNs
}

func (t *layerTotals) addCampaign(a attribution, execs float64, rp *replay) {
	t.execs += execs
	t.engineNs += a.engine
	t.judgeNs += a.judge
	t.selfNs += a.self()
	t.rEngine += rp.engine
	t.rNone += rp.none
	t.rInterp += rp.interp
	t.rSteps += rp.steps
}

// addDurable adds the layers only a durable fleet reaches and returns
// the fleet's checkpoint time: the measured file I/O plus, per
// checkpoint written, the snapshot-and-encode time measured on the
// interrupted state.
func (t *layerTotals) addDurable(fr *fleetRun) float64 {
	var ck float64
	if n := len(fr.ckptEncode); n > 0 {
		var enc time.Duration
		for _, d := range fr.ckptEncode {
			enc += d
		}
		ck = float64(fr.ckptIO) + float64(fr.ckpts)*float64(enc)/float64(n)
	}
	t.ckptNs += ck
	t.ckptBytes += float64(fr.ckptBytes)
	t.journalEvents += fr.journalEvents
	t.journalBytes += fr.journalBytes
	t.syncEpochs += fr.syncEpochs
	t.restarts += int64(fr.restarts)
	return ck
}

func (t *layerTotals) addStats(r *fuzz.Report) {
	t.statExecs += r.Stats.Execs
	t.steps += r.Stats.TotalSteps
	t.timeouts += r.Stats.Timeouts
	t.added += r.Stats.Added
	t.queue += int64(r.QueueLen)
	t.cmplogExecs += r.Stats.CmplogExecs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *layerTotals) metrics(s *search, rs resumeSample) map[string]metric {
	return map[string]metric{
		"frontend.compile_s":        {t.frontend.Seconds(), "s"},
		"frontend.edges":            {float64(t.edges), "count"},
		"compile.lower_s":           {t.lower.Seconds(), "s"},
		"compile.instrs":            {float64(t.instrs), "count"},
		"compile.nops":              {float64(t.nops), "count"},
		"engine.ns_per_exec":        {ratio(t.engineNs, t.execs), "ns"},
		"engine.ns_per_step":        {ratio(float64(t.rEngine), float64(t.rSteps)), "ns"},
		"engine.steps_per_exec":     {ratio(float64(t.steps), float64(t.statExecs)), "steps"},
		"engine.probe_share":        {1 - ratio(float64(t.rNone), float64(t.rEngine)), "fraction"},
		"engine.interp_ns_per_step": {ratio(float64(t.rInterp), float64(t.rSteps)), "ns"},
		"engine.timeout_frac":       {ratio(float64(t.timeouts), float64(t.statExecs)), "fraction"},
		"judge.ns_per_exec":         {ratio(t.judgeNs, t.execs), "ns"},
		"fuzz.self_ns_per_exec":     {ratio(t.selfNs, t.execs), "ns"},
		"fuzz.self_negative":        {float64(t.negative), "count"},
		"fuzz.self_min_share":       {t.minShare, "fraction"},
		"fuzz.allocs_per_exec":      {ratio(float64(t.mem.mallocs), t.execs), "count"},
		"fuzz.alloc_bytes_per_exec": {ratio(float64(t.mem.bytes), t.execs), "B"},
		"fuzz.gc_pause_s":           {float64(t.mem.pauseNs) / 1e9, "s"},
		"fuzz.calibrate_s":          {t.calib.Seconds(), "s"},
		"fuzz.queue_len":            {float64(t.queue), "count"},
		"fuzz.novel_per_kexec":      {1000 * ratio(float64(t.added), float64(t.statExecs)), "1/kexec"},
		"fuzz.cmplog_exec_share":    {ratio(float64(t.cmplogExecs), float64(t.statExecs)), "fraction"},
		"fuzz.cmplog_time_share":    {ratio(t.cmplogNs, t.fuzzNs), "fraction"},
		"fuzz.restore_s":            {rs.restore.Seconds(), "s"},
		"fuzz.overshoot_execs":      {float64(s.overshoot), "execs"},
		"fuzz.unplanted_bug_keys":   {float64(len(s.unplanted)), "count"},
		"campaign.decode_s":         {rs.decode.Seconds(), "s"},
		"campaign.ckpt_s":           {t.ckptNs / 1e9, "s"},
		"campaign.ckpt_bytes":       {t.ckptBytes, "B"},
		"cgt.retrace_rate":          {ratio(float64(t.retraces), float64(t.fastExecs)), "fraction"},
		"cgt.elided_frac":           {ratio(float64(t.elided), float64(t.sites)), "fraction"},
		"cgt.replans":               {float64(t.replans), "count"},
		"strategy.rounds":           {float64(t.rounds), "count"},
		"strategy.cull_execs":       {float64(t.cullExecs), "execs"},
		"strategy.cull_s":           {t.cullNs / 1e9, "s"},
		"journal.events":            {float64(t.journalEvents), "count"},
		"journal.bytes":             {float64(t.journalBytes), "B"},
		"fleet.sync_epochs":         {float64(t.syncEpochs), "count"},
		"fleet.restarts":            {float64(t.restarts), "count"},
		"fleet.overshoot_execs":     {float64(s.fleetOvershoot), "execs"},
		"trace.overhead":            {ratio(float64(t.traced), float64(t.untraced)) - 1, "fraction"},
	}
}

// writeSpans writes the traced run's spans, one JSON object per line,
// to trace-<workload>-<seed>.jsonl in the state directory.
func (b *bench) writeSpans() error {
	name := filepath.Join(b.dir, fmt.Sprintf("trace-%s-%d.jsonl", b.w.name, b.seed))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range b.tr.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "campbench: %d spans written to %s\n", len(b.tr.spans), name)
	return nil
}
