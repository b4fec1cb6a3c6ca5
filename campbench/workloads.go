package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/strategy"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// workload is one named set of campaigns. Its work is fixed: budgets
// never depend on host speed or on -seconds, so the search metrics are
// a function of the workload seed alone. -seconds only sets how many
// timing passes repeat that fixed work (see passesFor).
type workload struct {
	name      string
	campaigns func(seed int64) []*camp
	fleets    func(seed int64) []*fleetRun
	// layerFleets runs the durable fleets once in the traced run, for
	// the layers only fleets reach.
	layerFleets bool
}

var workloads = []*workload{
	{name: "grid", campaigns: gridCampaigns, layerFleets: true},
	{name: "deep", campaigns: deepCampaigns},
	{name: "durable", fleets: durableFleets},
}

// passSeconds is the wall time of one timing pass of any workload on
// the reference host (2-vCPU VM), the divisor that turns -seconds into
// passes.
const passSeconds = 5

// setupSamples is how many cold set-ups of a grid or deep workload a
// run measures; each set-up step counts with its fastest sample.
const setupSamples = 5

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// passesFor turns the nominal measured duration into a whole number of
// timing passes, at least one.
func passesFor(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/passSeconds)))
}

// campaignSeed derives a campaign's RNG seed from the workload seed and
// the campaign's identity (splitmix64 over an FNV-1a hash of the id).
// The self-test pins its values: changing it changes every campaign.
func campaignSeed(workloadSeed int64, id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	z := uint64(workloadSeed)*0x9E3779B97F4A7C15 ^ h.Sum64()
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7fffffff)
}

// gridBudget is the exec budget of every grid campaign.
const gridBudget = 15000

// gridConfigs are the paper's Table II configurations the grid runs.
var gridConfigs = []strategy.Name{strategy.Path, strategy.PCGuard, strategy.Cull, strategy.Opp}

// gridCampaigns is the Table II traffic: four configurations on every
// subject but gdk (the one whose executions hit the step limit), on the
// default engine.
func gridCampaigns(seed int64) []*camp {
	var out []*camp
	for _, name := range subjects.Names() {
		if name == "gdk" {
			continue
		}
		for _, c := range gridConfigs {
			out = append(out, newCampaign("grid", name, c, fuzz.EngineAuto, gridBudget, 1, seed))
		}
	}
	return out
}

// deepCampaigns runs the exec-heavy subjects as path on the default
// bytecode engine and as pcguard on the CGT engine, the only traffic
// where CGT can elide probes. Budgets give every subject a similar
// wall time; gdk's include about 1.2k calibration execs. A campaign's
// cost per exec depends on the inputs its seed happens to find (one
// tiffsplit path campaign in seven averaged 4x the steps per exec of
// the others), so cflow and tiffsplit run as three campaigns with
// their own seeds and a third of the budget each, which averages that
// out. gdk runs once per configuration: its seeds' calibration takes
// over a second per campaign. CGT campaigns run as one timed unit (see
// newCampaign).
func deepCampaigns(seed int64) []*camp {
	var out []*camp
	for _, d := range []struct {
		subject   string
		copies    int
		path, cgt int64
	}{
		{"cflow", 3, 20000, 20000},
		{"tiffsplit", 3, 27000, 40000},
		{"gdk", 1, 5000, 10000},
	} {
		for _, c := range []struct {
			config strategy.Name
			engine fuzz.Engine
			budget int64
		}{
			{strategy.Path, fuzz.EngineAuto, d.path},
			{strategy.PCGuard, fuzz.EngineCGT, d.cgt},
		} {
			for k := 1; k <= d.copies; k++ {
				cp := newCampaign("deep", d.subject, c.config, c.engine, c.budget, deepSlices, seed)
				if d.copies > 1 {
					cp.id += fmt.Sprintf("#%d", k)
					cp.seed = campaignSeed(seed, cp.id)
				}
				out = append(out, cp)
			}
		}
	}
	return out
}

// deepSlices is the number of timed slices per deep campaign.
const deepSlices = 4

// camp is one grid or deep campaign. Single-phase configurations
// (path, pcguard) are driven here with the same calls strategy.Run
// makes for them, cut into timed slices at queue-entry boundaries so a
// slice can be repeated from its snapshot; round-based ones (cull, opp)
// go through strategy.Run whole.
type camp struct {
	id      string
	subject *subjects.Subject
	config  strategy.Name
	engine  fuzz.Engine
	budget  int64
	slices  int
	seed    int64

	prog *cfg.Program
	opts fuzz.Options
	err  error

	// Single-phase state: the snapshot at the start of each slice and
	// the exec counter each slice ends at. start is the exec counter
	// after seed calibration.
	snaps []*fuzz.Snapshot
	ends  []int64
	start int64
	stats fuzz.Stats
	final *fuzz.Snapshot
	// ckpt is the sealed checkpoint of the final state resume_s decodes.
	ckpt []byte

	// times holds each timed unit's wall time in every untraced pass,
	// traced the same in every traced pass.
	times, traced unitTimes
	// mem holds the allocation counters over the first traced pass, and
	// cmplogNs the cmplog time its recorder saw in cmplogOf.
	mem      memDelta
	cmplogNs int64
	cmplogOf time.Duration

	report   *fuzz.Report
	phase1   *fuzz.Report
	rounds   int
	cullCost int64
	virgin   []coverage.VirginCell
	cgt      fuzz.CGTInfo
	hasCGT   bool
	instrs   int
	nops     int
	calib    time.Duration
}

func newCampaign(wl, subject string, config strategy.Name, engine fuzz.Engine, budget int64, slices int, seed int64) *camp {
	id := fmt.Sprintf("%s/%s/%s", wl, subject, config)
	if engine == fuzz.EngineCGT {
		id += "-cgt"
		// fuzz.Restore replans the CGT engine's probe elision from the
		// virgin map, which an uninterrupted campaign does only at
		// cycle starts. A slice restored mid-cycle would run with a
		// fresher plan than strategy.Run's, so a CGT campaign is one
		// slice, restored from its post-calibration snapshot: that
		// replan sees the virgin map the first cycle start sees.
		slices = 1
	}
	sub := subjects.Get(subject)
	if sub == nil {
		panic("campbench: unknown subject " + subject)
	}
	return &camp{id: id, subject: sub, config: config, engine: engine, budget: budget, slices: slices, seed: campaignSeed(seed, id)}
}

func (c *camp) single() bool {
	return c.config == strategy.Path || c.config == strategy.PCGuard
}

// feedbacks lists the feedbacks the campaign's driver compiles, in the
// order it uses them.
func (c *camp) feedbacks() []instrument.Feedback {
	switch c.config {
	case strategy.PCGuard:
		return []instrument.Feedback{instrument.FeedbackEdge}
	case strategy.Opp:
		return []instrument.Feedback{instrument.FeedbackEdge, instrument.FeedbackPath}
	}
	return []instrument.Feedback{instrument.FeedbackPath}
}

// fuzzOpts are the fuzzer options of the campaign's first fuzzer;
// strategy.Run overrides Feedback per phase for round-based drivers.
func (c *camp) fuzzOpts() fuzz.Options {
	return fuzz.Options{
		Feedback:        c.feedbacks()[0],
		Seed:            c.seed,
		Entry:           "main",
		Limits:          vm.DefaultLimits(),
		Engine:          c.engine,
		KeepCrashInputs: true,
	}
}

// charged is what the campaign's driver charged to its budget.
func (c *camp) charged() int64 {
	n := c.report.Stats.Execs + c.cullCost
	if c.phase1 != nil {
		n += c.phase1.Stats.Execs
	}
	return n
}

// timedExecs is the executions performed inside the campaign's timed
// units: everything after seed calibration for single-phase campaigns,
// everything strategy.Run charged for round-based ones.
func (c *camp) timedExecs() int64 {
	if c.single() {
		return c.report.Stats.Execs - c.start
	}
	return c.charged()
}

// timedSteps is the steps executed inside the campaign's timed units.
func (c *camp) timedSteps() int64 {
	if c.single() {
		return c.stats.TotalSteps - c.snaps[0].Stats.TotalSteps
	}
	n := c.report.Stats.TotalSteps
	if c.phase1 != nil {
		n += c.phase1.Stats.TotalSteps
	}
	return n
}

// sliceEnd is the exec count at which slice k (not the last) stops.
func (c *camp) sliceEnd(k int) int64 {
	return c.start + (c.budget-c.start)*int64(k+1)/int64(c.slices)
}

// unitTimes holds each timed unit's wall time in every pass of a kind.
type unitTimes [][]time.Duration

func (u *unitTimes) add(k int, d time.Duration) {
	for len(*u) <= k {
		*u = append(*u, nil)
	}
	(*u)[k] = append((*u)[k], d)
}

// best sums every unit's fastest time: noise on a busy host only ever
// adds time, so the fastest repeat is the closest to the work's cost.
func (u unitTimes) best() time.Duration {
	var t time.Duration
	for _, ds := range u {
		t += slices.Min(ds)
	}
	return t
}

// bench is one run of one workload.
type bench struct {
	w      *workload
	seed   int64
	passes int
	trace  bool
	dir    string
	log    io.Writer
	tr     *tracer
	chk    checker

	camps  []*camp
	fleets []*fleetRun
	// layerFleets are fleets run only for the traced run's layers.
	layerFleets []*fleetRun
	// setup holds each cold set-up step's time in every set-up sample.
	setup unitTimes
	// frontend and lower are the cold compile and lowering times of the
	// first set-up.
	frontend, lower time.Duration
	// resumes holds the fastest resume measurement per campaign or
	// fleet worker.
	resumes map[string]resumeSample
}

func newBench(w *workload, seed int64, seconds int, trace bool, dir string, log io.Writer) *bench {
	b := &bench{w: w, seed: seed, passes: passesFor(seconds), trace: trace, dir: dir, log: log, resumes: map[string]resumeSample{}}
	b.chk.log = log
	if trace {
		b.tr = newTracer()
	}
	return b
}

// run executes the workload and assembles the result; out receives the
// human-readable metric table.
func (b *bench) run(out io.Writer) (*result, error) {
	state := filepath.Join(b.dir, fmt.Sprintf("state-%d", os.Getpid()))
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(state)
	var err error
	if b.w.fleets != nil {
		err = b.runFleets(state)
	} else {
		err = b.runCampaigns()
	}
	if err == nil && b.trace && b.w.layerFleets {
		b.runLayerFleets(state)
	}
	if err != nil {
		return nil, err
	}
	return b.result(out)
}

// runCampaigns runs a grid or deep workload: the first cold set-up
// builds the campaigns, pass 1 runs them, later passes repeat every
// timed unit, and the other set-up samples repeat the cold set-up,
// spread over the passes so that their fastest can miss a slow spell
// of the host. A traced run follows every untraced pass with a traced
// one, so that both kinds count with their fastest of as many passes
// taken over the same stretch of time.
func (b *bench) runCampaigns() error {
	b.camps = b.w.campaigns(b.seed)
	if err := b.setupCampaigns(true); err != nil {
		return err
	}
	taken := 1
	for p := 0; p < b.passes; p++ {
		for _, c := range b.camps {
			b.campaignPass(c, p, false)
		}
		if b.trace {
			for _, c := range b.camps {
				b.campaignPass(c, p+1, true)
			}
		}
		b.measureResume()
		for ; taken < 1+(p+1)*(setupSamples-1)/b.passes; taken++ {
			if err := b.setupCampaigns(false); err != nil {
				return err
			}
		}
	}
	return nil
}

// setupCampaigns performs the cold set-up a fresh process pays before
// fuzzing: compile each subject from source, lower it for each feedback
// its campaigns use, build each campaign's first fuzzer and calibrate
// the seeds. Each step (one compile, one lowering, one fuzz.New, one
// seed's AddSeed) is one sample of that set-up unit: the shorter the
// step, the likelier one of its samples misses a slow spell. With
// keep, the fuzzers become the campaigns' own; a campaign whose fuzzer
// cannot be built fails its check.
func (b *bench) setupCampaigns(keep bool) error {
	step := 0
	note := func(d time.Duration) {
		b.setup.add(step, d)
		step++
	}
	for i := 0; i < len(b.camps); {
		sub := b.camps[i].subject
		j := i
		for j < len(b.camps) && b.camps[j].subject == sub {
			j++
		}
		group := b.camps[i:j]
		i = j

		var prog *cfg.Program
		var err error
		d := b.span(sub.Name, "frontend", "cfg.Compile", func() { prog, err = cfg.Compile(sub.Source) })
		note(d)
		if keep {
			b.frontend += d
		}
		if err != nil {
			return fmt.Errorf("compile %s: %w", sub.Name, err)
		}
		lowered := map[instrument.Feedback]bool{}
		for _, c := range group {
			for _, fb := range c.feedbacks() {
				if lowered[fb] {
					continue
				}
				lowered[fb] = true
				d := b.span(sub.Name, "compile", "instrument.CompiledFor/"+fb.String(), func() {
					instrument.CompiledFor(fb, prog, instrument.Config{})
				})
				note(d)
				if keep {
					b.lower += d
				}
			}
		}
		for _, c := range group {
			opts := c.fuzzOpts()
			var f *fuzz.Fuzzer
			var ferr error
			d := b.span(c.id, "fuzz", "calibrate", func() {
				t0 := time.Now()
				f, ferr = fuzz.New(prog, opts)
				note(time.Since(t0))
				if ferr != nil {
					return
				}
				for _, s := range sub.Seeds {
					t0 = time.Now()
					f.AddSeed(s)
					note(time.Since(t0))
				}
			})
			if !keep {
				continue
			}
			c.prog, c.opts, c.calib = prog, opts, d
			if ferr != nil {
				b.chk.fail(c.id, c.budget, "fuzz.New: %v", ferr)
				c.err = ferr
				continue
			}
			if c.single() {
				c.snaps, c.start = []*fuzz.Snapshot{f.Snapshot()}, f.Execs()
			}
		}
		// The calibrated fuzzers are dropped: a campaign's fuzzer only
		// lives while one of its units runs.
		runtime.GC()
	}
	return nil
}

// campaignPass runs every timed unit of one campaign once. A
// single-phase campaign's units are its slices, each run on a fuzzer
// restored from the snapshot at the slice's start: pass 0 takes the
// snapshot that starts the next slice, later passes check that the
// repeat ended where pass 0 did. Round-based campaigns run whole. A
// traced pass (p >= 1) attaches a telemetry recorder; the first one
// also reads the allocation counters around each unit.
func (b *bench) campaignPass(c *camp, p int, traced bool) {
	if c.err != nil {
		return
	}
	if !c.single() {
		b.roundPass(c, p, traced)
		return
	}
	opts := c.opts
	rec := b.recorder(traced)
	opts.Telemetry = rec
	first := traced && p == 1
	var pass time.Duration
	for k := 0; k < c.slices; k++ {
		f, err := fuzz.Restore(c.prog, opts, c.snaps[k])
		if err != nil {
			b.chk.fail(c.id, c.budget, "restoring slice %d: %v", k, err)
			c.err = err
			return
		}
		last := k == c.slices-1
		if !last {
			end := c.sliceEnd(k)
			f.SetCheckpointHook(func(f *fuzz.Fuzzer) bool { return f.Execs() < end })
		}
		runtime.GC()
		m0 := b.readMem(first)
		dt := b.span(c.id, "fuzz", fmt.Sprintf("Fuzz/slice%d", k), func() { f.Fuzz(c.budget) })
		c.mem.add(b.readMem(first), m0)
		f.SetCheckpointHook(nil)
		pass += dt
		switch {
		case p == 0:
			c.ends = append(c.ends, f.Execs())
			c.times.add(k, dt)
			if !last {
				c.snaps = append(c.snaps, f.Snapshot())
			}
			// The CGT counters start at the restore, which replans
			// once outside the timed unit; the elision gauges are the
			// final plan's.
			if info, ok := f.CGTInfo(); ok {
				info.Replans--
				c.cgt, c.hasCGT = info, true
			}
		case f.Execs() != c.ends[k]:
			b.chk.fail(c.id, c.budget, "repeat of slice %d ended at %d execs, pass 1 at %d", k, f.Execs(), c.ends[k])
		case traced:
			c.traced.add(k, dt)
		default:
			c.times.add(k, dt)
		}
		if !last {
			continue
		}
		if p > 0 && f.StatsSnapshot() != c.stats {
			b.chk.fail(c.id, c.budget, "repeated campaign ended with different stats")
		}
		if p == 0 {
			c.stats = f.StatsSnapshot()
			c.final = f.Snapshot()
			c.report = f.Report()
			c.virgin = f.VirginCells()
			c.instrs, c.nops = f.BytecodeInstrs(), f.BytecodeNops()
		}
	}
	if first {
		c.cmplogNs, c.cmplogOf = cmplogNs(rec), pass
	}
}

// roundPass runs a round-based campaign once through strategy.Run.
func (b *bench) roundPass(c *camp, p int, traced bool) {
	opts := c.opts
	rec := b.recorder(traced)
	opts.Telemetry = rec
	var out *strategy.Outcome
	var err error
	first := traced && p == 1
	runtime.GC()
	m0 := b.readMem(first)
	dt := b.span(c.id, "strategy", "strategy.Run", func() {
		out, err = strategy.Run(c.config, c.prog, strategy.Config{Opts: opts, Budget: c.budget, Seeds: c.subject.Seeds})
	})
	c.mem.add(b.readMem(first), m0)
	if err != nil {
		b.chk.fail(c.id, c.budget, "%v", err)
		c.err = err
		return
	}
	if p == 0 {
		c.report, c.phase1, c.rounds, c.cullCost = out.Report, out.Phase1, out.Rounds, out.CullCost
		c.times.add(0, dt)
		return
	}
	if out.Report.Stats != c.report.Stats || out.CullCost != c.cullCost || out.Rounds != c.rounds {
		b.chk.fail(c.id, c.budget, "repeated campaign ended with different stats")
	}
	if traced {
		c.traced.add(0, dt)
		if first {
			c.cmplogNs, c.cmplogOf = cmplogNs(rec), dt
		}
		return
	}
	c.times.add(0, dt)
}

// resumeRepeats is how many times each campaign's resume is timed
// after each pass; spreading the repeats over the run lets the fastest
// one miss a slow spell of the host.
const resumeRepeats = 2

// measureResume times what resuming each single-phase campaign from a
// checkpoint of its final state costs: decoding the sealed checkpoint
// and restoring the fuzzer from it. campaign.LoadLatest adds only the
// directory listing and file read to the decode.
func (b *bench) measureResume() {
	for _, c := range b.camps {
		if c.err != nil || !c.single() {
			continue
		}
		if c.ckpt == nil {
			data, err := encodeCheckpoint(c)
			if err != nil {
				b.chk.fail(c.id, c.budget, "encoding checkpoint: %v", err)
				c.err = err
				continue
			}
			c.ckpt = data
		}
		data := c.ckpt
		for r := 0; r < resumeRepeats; r++ {
			runtime.GC()
			rs, err := b.resumeOne(c, data)
			if err != nil {
				b.chk.fail(c.id, c.budget, "resuming from checkpoint: %v", err)
				break
			}
			b.noteResume(c.id, rs)
		}
	}
}

// noteResume keeps the fastest resume measurement of one campaign or
// fleet worker.
func (b *bench) noteResume(unit string, rs resumeSample) {
	if cur, ok := b.resumes[unit]; !ok || rs.total() < cur.total() {
		b.resumes[unit] = rs
	}
}

// resumeTotal sums the fastest resume measurement of every unit.
func (b *bench) resumeTotal() resumeSample {
	var t resumeSample
	for _, rs := range b.resumes {
		t.decode += rs.decode
		t.restore += rs.restore
	}
	return t
}
