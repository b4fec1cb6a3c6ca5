// Package fuzz implements the coverage-guided greybox fuzzer used
// throughout the reproduction: an AFL++-like engine (queue, virgin-bit
// novelty, favored corpus via greedy set cover, power schedule, havoc
// and splice mutators, and a cmplog-lite input-to-state stage) whose
// coverage feedback is pluggable — the single-component substitution
// the paper makes.
//
// Budgets are counted in executions rather than wall-clock time, the
// deterministic analogue of the paper's 48-hour campaigns, and all
// randomness flows from one seeded source so campaigns replay exactly.
package fuzz

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/interproc"
	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Engine selects the execution engine for a campaign. Every engine
// runs the compiled bytecode (package bytecode); the reference
// interpreter (package vm) is the test oracle, not a campaign engine.
type Engine int

// Engines.
const (
	// EngineAuto (the default) runs the compiled bytecode engine.
	EngineAuto Engine = iota
	// EngineCGT runs the coverage-guided tracing engine: the compiled
	// bytecode engine plus self-patching probe elision with
	// coverage-preserving retrace (see cgt.go). Campaign results are
	// byte-identical to EngineAuto.
	EngineCGT
)

// String names the engine selection; ParseEngine reads it back.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "bytecode"
	case EngineCGT:
		return "cgt"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "bytecode", "auto", "":
		return EngineAuto, nil
	case "cgt":
		return EngineCGT, nil
	}
	return EngineAuto, fmt.Errorf("fuzz: unknown engine %q (want bytecode or cgt)", s)
}

// Profile selects the base-fuzzer capability set.
type Profile int

// Profiles.
const (
	// ProfileAFLPlusPlus is the default: cmplog-lite, dictionaries,
	// wide interesting values, AFL++ skip probabilities.
	ProfileAFLPlusPlus Profile = iota
	// ProfileAFL models the older AFL 2.52b base PathAFL builds on: no
	// cmplog, no dictionary ops, more conservative energy.
	ProfileAFL
)

// Options configures a fuzzing campaign.
type Options struct {
	// Feedback selects the coverage feedback mechanism.
	Feedback instrument.Feedback
	// Instr tunes instrumentation construction.
	Instr instrument.Config
	// MapSize is the coverage map size (power of two);
	// coverage.DefaultMapSize when zero.
	MapSize int
	// Entry is the entry function name ("main" when empty).
	Entry string
	// Seed seeds the campaign's random source.
	Seed int64
	// Limits bounds each execution; vm.DefaultLimits() when zero.
	Limits vm.Limits
	// MaxInputLen caps generated inputs (default 512).
	MaxInputLen int
	// Profile selects AFL++ vs AFL behaviour.
	Profile Profile
	// Dict holds initial dictionary tokens.
	Dict [][]byte
	// HistorySamples is the number of (execs, queue-size) samples
	// recorded for the Figure 2 reproduction (default 64).
	HistorySamples int
	// KeepCrashInputs retains the first crashing input per unique
	// stack hash (default true via New).
	KeepCrashInputs bool
	// FaultInjector, when non-nil, is consulted before every execution
	// and simulates an engine panic when it returns true. It exists
	// for the campaign durability fault-injection tests; see also
	// vm.Limits.InjectPanicAtStep for panics injected mid-execution.
	FaultInjector func(execs int64, data []byte) bool
	// Engine selects the execution engine (EngineAuto, the compiled
	// bytecode engine, by default).
	Engine Engine
	// AnalysisGuide enables analysis-guided fuzzing: interprocedural
	// input-dependency facts (package analysis/interproc) focus havoc's
	// byte mutations on the dependency ranges of rare frontier
	// branches, boost the power schedule toward input-dependent
	// unexplored branches (the analysis generalization of ReachBoost),
	// skip provably input-independent cmplog sites, and let the CGT
	// engine elide probes of statically-dead path cells. See guide.go.
	// Off by default; campaigns with it off are byte-identical to
	// previous behaviour.
	AnalysisGuide bool
	// ReachBoost enables the static crash-site reachability term in
	// the power schedule: entries whose coverage borders many
	// statically reachable crash sites get up to twice the havoc
	// budget (a PrescientFuzz-style prior). Only the exact-index
	// feedbacks (edge, block, pathafl's edge component) support the
	// map-index inversion; others silently skip the boost. The weights
	// are recomputed from the program on resume, so checkpoints are
	// unaffected.
	ReachBoost bool
	// Status, when non-nil, receives a periodic one-line campaign status
	// (engine, execs/sec, queue, coverage, crashes).
	Status io.Writer
	// StatusPeriod is the wall-clock interval between status lines
	// (default 1s when Status is set). Wall-clock pacing keeps slow or
	// tight-limit subjects from going silent; it is display-only and
	// never feeds back into campaign state.
	StatusPeriod time.Duration
	// StatusEvery is the exec-count fallback between status lines
	// (default 50000): a line is also emitted whenever this many
	// executions pass without one, so a stalled clock cannot silence
	// the campaign either.
	StatusEvery int64
	// Telemetry, when non-nil, receives counter snapshots and stage
	// spans. Publishing happens only at queue-entry boundaries (never
	// inside the exec loop) and is strictly observational: attaching a
	// recorder cannot change what the campaign does.
	Telemetry *telemetry.Recorder
	// Journal, when non-nil, receives structured campaign lifecycle
	// events (seed calibration, novelty, crashes, cycles, CGT replans).
	// Like Telemetry it is strictly observational: the emitted-event
	// counter advances whether or not a writer is attached, so
	// checkpoints — and therefore campaigns — are byte-identical with
	// journaling on or off.
	Journal *journal.Writer
	// JournalWorker and JournalGen tag emitted events with the fleet
	// worker id and attempt generation (both 0 for single campaigns).
	JournalWorker int
	JournalGen    int
	// JournalShared marks Journal as shared across fleet workers:
	// Restore then skips the resume tail-truncation (the supervisor
	// owns the stream; a worker restore must not rewrite other
	// workers' events).
	JournalShared bool
}

// Validate rejects misconfigured options before defaulting can mask
// them: negative sizes and budgets, a non-power-of-two map, dictionary
// tokens that can never fit the input cap, and out-of-range enum
// values. New calls it on the raw (pre-default) options, so a zero
// field still means "use the default" while a negative or contradictory
// one is an error instead of silent behaviour.
func (o Options) Validate() error {
	if o.MapSize < 0 {
		return fmt.Errorf("fuzz: MapSize %d is negative", o.MapSize)
	}
	if o.MapSize > 0 && o.MapSize&(o.MapSize-1) != 0 {
		return fmt.Errorf("fuzz: MapSize %d is not a power of two", o.MapSize)
	}
	if o.MaxInputLen < 0 {
		return fmt.Errorf("fuzz: MaxInputLen %d is negative", o.MaxInputLen)
	}
	if o.HistorySamples < 0 {
		return fmt.Errorf("fuzz: HistorySamples %d is negative", o.HistorySamples)
	}
	if o.StatusPeriod < 0 {
		return fmt.Errorf("fuzz: StatusPeriod %v is negative", o.StatusPeriod)
	}
	if o.StatusEvery < 0 {
		return fmt.Errorf("fuzz: StatusEvery %d is negative", o.StatusEvery)
	}
	if o.Engine < EngineAuto || o.Engine > EngineCGT {
		return fmt.Errorf("fuzz: unknown engine %d", int(o.Engine))
	}
	if o.Profile != ProfileAFLPlusPlus && o.Profile != ProfileAFL {
		return fmt.Errorf("fuzz: unknown profile %d", int(o.Profile))
	}
	if o.MaxInputLen > 0 {
		for i, tok := range o.Dict {
			if len(tok) > o.MaxInputLen {
				return fmt.Errorf("fuzz: dictionary token %d is %d bytes, exceeds MaxInputLen %d", i, len(tok), o.MaxInputLen)
			}
		}
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.MapSize == 0 {
		o.MapSize = coverage.DefaultMapSize
	}
	if o.Entry == "" {
		o.Entry = "main"
	}
	if o.Limits == (vm.Limits{}) {
		o.Limits = vm.DefaultLimits()
	}
	if o.MaxInputLen == 0 {
		o.MaxInputLen = 512
	}
	if o.HistorySamples == 0 {
		o.HistorySamples = 64
	}
	return o
}

// Entry is a queue entry: an interesting test case and its metadata.
type Entry struct {
	ID   int
	Data []byte
	// Cov is the sparse sorted set of classified coverage map indices
	// the input touches (the trace_mini analogue).
	Cov []uint32
	// Steps is the execution cost (the exec-time analogue).
	Steps int64
	// Depth is the mutation chain length from the seed corpus.
	Depth int
	// FoundAt is the campaign execution counter when the entry was
	// added.
	FoundAt int64
	// Handicap counts queue cycles completed before the entry arrived.
	Handicap int
	// Favored marks membership in the favored (set-cover) corpus.
	Favored   bool
	WasFuzzed bool
	// IsSeed marks initial corpus entries.
	IsSeed bool
	// Parent is the queue index of the entry the discovering mutation
	// started from (-1 for initial seeds) — the genealogy edge.
	Parent int
	// Stage is the mutation stage that produced the entry (the stage*
	// constants).
	Stage uint8
	// FirstCells lists the coverage-map cells this entry was first to
	// touch: the indices updateTopRated found without an incumbent
	// champion. Provenance is always recorded (not gated on the
	// journal), so reports are identical with journaling on or off.
	FirstCells []uint32
}

// CrashRec aggregates the crashes sharing one stack hash.
type CrashRec struct {
	Crash   *vm.Crash
	Input   []byte
	Count   int
	FoundAt int64
}

// HistPoint samples campaign progress over time.
type HistPoint struct {
	Execs     int64
	QueueLen  int
	CovCount  int
	Crashes   int64
	UniqBugs  int
	Favored   int
	PathCount int64 // entries ever added (paths_total analogue)
}

// Stats aggregates campaign counters.
type Stats struct {
	Execs      int64
	Timeouts   int64
	CrashExecs int64
	TotalSteps int64
	Cycles     int
	Added      int64
	// AFLUniqueCrashes counts crashes under AFL's original uniqueness
	// notion — a crash is "unique" if its execution covered at least
	// one new coverage tuple relative to prior crashes. The paper's
	// Appendix C (Table IX) contrasts this over-counting criterion with
	// stack-hash clustering.
	AFLUniqueCrashes int64
	// InternalFaults counts executions quarantined because the engine
	// panicked. These are harness defects, not findings against the
	// program under test; the campaign survives them and records the
	// triggering inputs.
	InternalFaults int64
	// Per-stage execution attribution: which stage issued each
	// execution. Deterministic (counts, not times), checkpointed with
	// the rest of Stats, and surfaced by the telemetry layer.
	SeedExecs   int64
	HavocExecs  int64
	SpliceExecs int64
	CmplogExecs int64
}

// Execution stages, for Stats attribution (internal; the telemetry
// package carries the exported stage taxonomy).
const (
	stageSeed uint8 = iota
	stageHavoc
	stageSplice
	stageCmplog
)

// stageName names a stage constant for provenance records and journal
// events.
func stageName(s uint8) string {
	switch s {
	case stageSeed:
		return "seed"
	case stageHavoc:
		return "havoc"
	case stageSplice:
		return "splice"
	case stageCmplog:
		return "cmplog"
	}
	return "?"
}

// InternalFault is one quarantined harness failure: a panic during an
// execution recovered by the fuzz loop instead of killing the campaign.
// Faults are deduplicated by message; Input is the first trigger.
type InternalFault struct {
	Msg     string
	Input   []byte
	FoundAt int64
	Count   int
}

// Fuzzer is one fuzzing campaign instance.
type Fuzzer struct {
	prog *cfg.Program
	opts Options
	rng  *rand.Rand
	// mach is the compiled bytecode engine, probes inlined.
	mach *bytecode.Machine
	// cgt, when non-nil, selects the coverage-guided tracing engine:
	// executions dispatch to its patched fast machine and mach becomes
	// the retrace (full-instrumentation) machine. See cgt.go.
	cgt    *cgtState
	cov    *coverage.Map
	virgin *coverage.Virgin
	// crashVirgin implements AFL's crash-uniqueness criterion.
	crashVirgin *coverage.Virgin
	mut         *mutator

	queue    []*Entry
	topRated map[uint32]*Entry
	// pendingFavored counts favored, not-yet-fuzzed entries.
	pendingFavored int

	// crashes dedups by stack hash (top-5 frames).
	crashes map[uint64]*CrashRec
	// bugs dedups by ground-truth bug key.
	bugs map[string]*CrashRec

	stats   Stats
	history []HistPoint
	// faults lists quarantined engine panics (capped; the full
	// count is in stats.InternalFaults).
	faults []InternalFault

	// avgSteps/avgCov track running means for the power schedule.
	sumSteps int64
	sumCov   int64

	// reachW maps coverage-map indices to static crash-site
	// reachability counts (Options.ReachBoost); reachMax is the
	// program-wide maximum, the boost's normalizer.
	reachW   []int
	reachMax int

	// guide holds the analysis-guided state (Options.AnalysisGuide;
	// nil otherwise), and covCount the per-cell queue coverage counts
	// behind its rarity ordering — derived state, rebuilt on restore.
	guide    *guideState
	covCount map[uint32]int

	dictSeen map[string]bool

	// scratch is the reusable candidate buffer of the cmplog stage
	// (substitution and resize variants); every retention path copies,
	// so the buffer is recycled across variants.
	scratch []byte

	// rngSrc is the counting source behind rng; snapshots record its
	// draw count so a resumed campaign can fast-forward a fresh source
	// to the exact same stream position.
	rngSrc *countingSource

	// Fuzz-loop position, promoted to fields so a checkpoint taken
	// between queue entries can resume mid-cycle: qi is the next queue
	// index to fuzz, qlen the cycle's frozen queue length, midCycle
	// whether a cycle is in flight.
	qi, qlen int
	midCycle bool
	// History sampling schedule; restored verbatim on resume so the
	// sample points of a resumed campaign match an uninterrupted one.
	sampleEvery, nextSample int64
	samplingRestored        bool

	// hook, when set, runs after every fuzzed queue entry — a
	// deterministic safe point where full state can be snapshotted.
	// Returning false stops Fuzz early (graceful shutdown).
	hook func(*Fuzzer) bool

	// Status-line pacing (display only; never feeds back into campaign
	// state, so determinism is unaffected).
	statusAt    time.Time
	statusExecs int64

	// curStage attributes executions to the stage that issued them
	// (stage counters in Stats); maxDepth tracks the deepest mutation
	// chain in the queue. Both are deterministic campaign state.
	curStage uint8
	maxDepth int

	// tel, when non-nil, receives counter snapshots and stage spans —
	// observation only, at queue-entry granularity. nextPublish paces
	// the snapshot copies (display only, like statusAt): the collector
	// samples at wall-clock intervals, so publishing every boundary
	// would pay the queue scans thousands of times per second for
	// snapshots nobody reads.
	tel         *telemetry.Recorder
	nextPublish int64

	// jrnl, when non-nil, receives structured lifecycle events; events
	// counts how many this campaign has emitted. The counter advances
	// even with no writer attached — it is checkpointed (so resume can
	// truncate the journal back to the checkpoint's event) and must not
	// depend on whether journaling happens to be on.
	jrnl   *journal.Writer
	events uint64
}

// New constructs a fuzzer for prog.
func New(prog *cfg.Program, opts Options) (*Fuzzer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if prog.Func(opts.Entry) == nil {
		return nil, fmt.Errorf("fuzz: program has no entry function %q", opts.Entry)
	}
	var guide *guideState
	if opts.AnalysisGuide {
		// The facts ride along in the instrumentation config (where
		// guided consumers expect them) but never affect lowering, so
		// the compile below is shared with unguided campaigns.
		facts := interproc.For(prog, prog.ByName[opts.Entry])
		opts.Instr.Facts = facts
		guide = newGuide(prog, facts, opts.Feedback, opts.MapSize, opts.Instr)
	}
	cp, ok := instrument.CompiledFor(opts.Feedback, prog, opts.Instr)
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown feedback %v", opts.Feedback)
	}
	m := coverage.NewMap(opts.MapSize)
	var cgt *cgtState
	if opts.Engine == EngineCGT {
		cgt = newCGT(cp, m, opts)
	}
	src := newCountingSource(opts.Seed)
	f := &Fuzzer{
		prog:        prog,
		opts:        opts,
		rng:         rand.New(src),
		rngSrc:      src,
		mach:        bytecode.NewMachine(cp, m, opts.Limits),
		cgt:         cgt,
		cov:         m,
		virgin:      coverage.NewVirgin(opts.MapSize),
		crashVirgin: coverage.NewVirgin(opts.MapSize),
		topRated:    make(map[uint32]*Entry),
		crashes:     make(map[uint64]*CrashRec),
		bugs:        make(map[string]*CrashRec),
		dictSeen:    make(map[string]bool),
		tel:         opts.Telemetry,
		jrnl:        opts.Journal,
		guide:       guide,
	}
	if guide != nil {
		f.covCount = make(map[uint32]int)
	}
	if opts.ReachBoost {
		f.reachW, f.reachMax = reachWeights(prog, opts.Feedback, opts.MapSize)
	}
	f.mut = &mutator{
		rng:    f.rng,
		maxLen: opts.MaxInputLen,
		rich:   opts.Profile == ProfileAFLPlusPlus,
	}
	for _, tok := range opts.Dict {
		f.addToken(tok)
	}
	return f, nil
}

// Program returns the program under test.
func (f *Fuzzer) Program() *cfg.Program { return f.prog }

// Execs returns the campaign execution counter.
func (f *Fuzzer) Execs() int64 { return f.stats.Execs }

// StatsSnapshot returns a copy of the campaign counters. Unlike Report
// it mutates nothing (Report re-culls the favored corpus), so it is
// safe to call from boundary hooks without perturbing determinism.
func (f *Fuzzer) StatsSnapshot() Stats { return f.stats }

// UniqueCrashes returns the number of unique crashes by stack hash.
func (f *Fuzzer) UniqueCrashes() int { return len(f.crashes) }

// UniqueBugs returns the number of unique ground-truth bugs found.
func (f *Fuzzer) UniqueBugs() int { return len(f.bugs) }

// QueueLen returns the current queue size.
func (f *Fuzzer) QueueLen() int { return len(f.queue) }

// QueueInputs returns copies of all queue inputs (the saved corpus).
func (f *Fuzzer) QueueInputs() [][]byte {
	return f.QueueInputsFrom(0)
}

// QueueInputsFrom returns copies of the queue inputs from index i on —
// the incremental publication set the fleet's corpus sync exchanges
// (entries added since the worker's previous sync point).
func (f *Fuzzer) QueueInputsFrom(i int) [][]byte {
	if i < 0 {
		i = 0
	}
	if i >= len(f.queue) {
		return nil
	}
	out := make([][]byte, 0, len(f.queue)-i)
	for _, e := range f.queue[i:] {
		out = append(out, append([]byte(nil), e.Data...))
	}
	return out
}

// CurrentInput returns a copy of the queue entry the fuzz loop most
// recently dispatched (nil outside a cycle). The fleet supervisor uses
// it to quarantine the poison input when a worker attempt panics; it
// must only be called from the goroutine running the fuzzer (the fuzz
// loop itself, its boundary hook, or a recover() above Fuzz).
func (f *Fuzzer) CurrentInput() []byte {
	if f.midCycle && f.qi-1 >= 0 && f.qi-1 < len(f.queue) {
		return append([]byte(nil), f.queue[f.qi-1].Data...)
	}
	return nil
}

func (f *Fuzzer) addToken(tok []byte) {
	if len(tok) == 0 || len(tok) > 32 || len(f.mut.dict) >= 512 {
		return
	}
	k := string(tok)
	if f.dictSeen[k] {
		return
	}
	f.dictSeen[k] = true
	f.mut.dict = append(f.mut.dict, append([]byte(nil), tok...))
}

// execOutcome describes one instrumented execution.
type execOutcome struct {
	res     vm.Result
	novelty coverage.Novelty
	cov     []uint32
}

// runProtected executes one input on mach with panic isolation: a panic
// inside the engine (a harness defect, possibly injected by the fault
// harness) is recovered and reported via ok=false instead of unwinding
// through the fuzz loop and killing the campaign. inject gates the
// fault-injection hook so the CGT engine's retrace re-execution does
// not consume a second injector decision for the same exec index.
func (f *Fuzzer) runProtected(mach *bytecode.Machine, data []byte, inject bool) (res vm.Result, faultMsg string, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			faultMsg = fmt.Sprint(r)
			ok = false
		}
	}()
	if inject {
		if inj := f.opts.FaultInjector; inj != nil && inj(f.stats.Execs, data) {
			panic("fuzz: injected execution fault")
		}
	}
	return mach.Run(f.opts.Entry, data), "", true
}

// EngineName reports which execution engine the campaign runs on.
func (f *Fuzzer) EngineName() string {
	if f.cgt != nil {
		return EngineCGT.String()
	}
	return EngineAuto.String()
}

// BytecodeInstrs returns the compiled program's flat instruction count.
func (f *Fuzzer) BytecodeInstrs() int { return f.mach.Program().NumInstrs() }

// BytecodeNops reports how many compiled instruction slots are counted
// nops (dead stores reclaimed by the optimizer).
func (f *Fuzzer) BytecodeNops() int { return f.mach.Program().NumNops() }

// recordFault quarantines one engine panic as an internal-fault
// finding, deduplicated by message.
func (f *Fuzzer) recordFault(data []byte, msg string) {
	f.stats.InternalFaults++
	for i := range f.faults {
		if f.faults[i].Msg == msg {
			f.faults[i].Count++
			return
		}
	}
	const maxFaultRecs = 64
	if len(f.faults) >= maxFaultRecs {
		return
	}
	f.faults = append(f.faults, InternalFault{
		Msg:     msg,
		Input:   append([]byte(nil), data...),
		FoundAt: f.stats.Execs,
		Count:   1,
	})
	f.emit(journal.Event{Kind: journal.KindFault, Stage: stageName(f.curStage), Msg: msg, Len: len(data)})
	if f.jrnl != nil {
		f.jrnl.DumpFlight("fault-"+journal.SanitizeName(msg), f.opts.JournalWorker)
	}
}

// execute runs one input and folds novelty into the virgin map. The
// CGT engine runs its patched fast machine instead and retraces under
// full instrumentation only when the campaign reads the map itself
// (see cgt.go); everything else is shared.
func (f *Fuzzer) execute(data []byte) execOutcome {
	mach := f.mach
	if f.cgt != nil {
		mach = f.cgt.fast
	}
	f.cov.Reset()
	res, faultMsg, ok := f.runProtected(mach, data, true)
	f.stats.Execs++
	switch f.curStage {
	case stageSeed:
		f.stats.SeedExecs++
	case stageHavoc:
		f.stats.HavocExecs++
	case stageSplice:
		f.stats.SpliceExecs++
	case stageCmplog:
		f.stats.CmplogExecs++
	}
	if !ok {
		// The execution is quarantined: its (possibly partial) coverage
		// is discarded so the virgin maps and queue see a no-op, and the
		// input is kept as an internal-fault record. A mid-run injected
		// panic aborts the CGT fast run at the exact step it would abort
		// the pristine one (patched opcodes charge no steps), and there
		// is no retrace.
		f.recordFault(data, faultMsg)
		f.cov.Reset()
		return execOutcome{res: vm.Result{Status: vm.StatusOK}}
	}
	f.stats.TotalSteps += res.Steps
	f.cov.ClassifySparse()
	nov := f.virgin.MergeSparse(f.cov)
	if f.cgt != nil {
		res = f.retraceIfRead(data, res, nov)
	}
	out := execOutcome{res: res, novelty: nov}
	if nov != coverage.NoNew {
		out.cov = f.cov.Indices()
	}
	switch res.Status {
	case vm.StatusTimeout:
		f.stats.Timeouts++
		if nov != coverage.NoNew {
			// A timeout that still produced map novelty is the rare
			// forensically interesting one (hangs usually re-cover known
			// cells); plain timeouts are counted, not journaled, so the
			// event volume stays bounded by the map.
			f.emit(journal.Event{Kind: journal.KindTimeout, Stage: stageName(f.curStage), Steps: res.Steps, Len: len(data)})
		}
	case vm.StatusCrash:
		f.stats.CrashExecs++
		if f.crashVirgin.MergeSparse(f.cov) != coverage.NoNew {
			f.stats.AFLUniqueCrashes++
		}
		f.recordCrash(data, res.Crash)
	}
	return out
}

func (f *Fuzzer) recordCrash(data []byte, c *vm.Crash) {
	h := c.StackHash(5)
	newHash := false
	if rec, ok := f.crashes[h]; ok {
		rec.Count++
	} else {
		newHash = true
		rec := &CrashRec{Crash: c, Count: 1, FoundAt: f.stats.Execs}
		if f.opts.KeepCrashInputs {
			rec.Input = append([]byte(nil), data...)
		}
		f.crashes[h] = rec
	}
	key := c.BugKey()
	newBug := false
	if rec, ok := f.bugs[key]; ok {
		rec.Count++
	} else {
		newBug = true
		rec := &CrashRec{Crash: c, Count: 1, FoundAt: f.stats.Execs}
		if f.opts.KeepCrashInputs {
			rec.Input = append([]byte(nil), data...)
		}
		f.bugs[key] = rec
	}
	if newHash || newBug {
		// Only first discoveries become events (re-crashes bump the
		// dedup counters silently), and each new bug ships with a
		// flight-recorder dump: the last-N-events context written next
		// to the crash input the findings directory keeps.
		f.emit(journal.Event{
			Kind:  journal.KindCrash,
			Stage: stageName(f.curStage),
			Hash:  crashHashName(h),
			Bug:   key,
			Len:   len(data),
		})
		if newBug && f.jrnl != nil {
			f.jrnl.DumpFlight("crash-"+journal.SanitizeName(key), f.opts.JournalWorker)
		}
	}
}

// AddSeed executes a seed input and enqueues it if it produced novelty
// (or unconditionally for the very first seed, so the queue is never
// empty).
func (f *Fuzzer) AddSeed(data []byte) {
	if f.tel != nil {
		defer f.tel.StartSpan(telemetry.StageCalibrate)()
		defer f.publishTelemetry()
	}
	if len(data) > f.opts.MaxInputLen {
		data = data[:f.opts.MaxInputLen]
	}
	f.curStage = stageSeed
	out := f.execute(data)
	// Calibration outcome is journaled whether or not the seed is
	// admitted (crashing and redundant seeds are forensic signal too).
	admitted := out.res.Status != vm.StatusCrash &&
		(out.novelty != coverage.NoNew || len(f.queue) == 0)
	f.emit(journal.Event{
		Kind:     journal.KindCalibrate,
		Stage:    stageName(stageSeed),
		Len:      len(data),
		Steps:    out.res.Steps,
		Status:   out.res.Status.String(),
		Admitted: admitted,
	})
	if !admitted {
		// The paper's opportunistic method strips crashing seeds; in
		// general a crashing or redundant seed is recorded but not
		// queued.
		return
	}
	cov := out.cov
	if cov == nil {
		cov = f.cov.Indices()
	}
	f.enqueue(data, cov, out.res.Steps, 0, -1, true)
	f.cmplogStage(f.queue[len(f.queue)-1], out.res.Cmps)
}

func (f *Fuzzer) enqueue(data []byte, cov []uint32, steps int64, depth, parent int, isSeed bool) *Entry {
	e := &Entry{
		ID:       len(f.queue),
		Data:     append([]byte(nil), data...),
		Cov:      cov,
		Steps:    steps,
		Depth:    depth,
		FoundAt:  f.stats.Execs,
		Handicap: f.stats.Cycles,
		IsSeed:   isSeed,
		Parent:   parent,
		Stage:    f.curStage,
	}
	f.queue = append(f.queue, e)
	f.stats.Added++
	f.sumSteps += steps
	f.sumCov += int64(len(cov))
	if depth > f.maxDepth {
		f.maxDepth = depth
	}
	f.updateTopRated(e)
	f.noteCov(e)
	f.emit(journal.Event{
		Kind:   journal.KindNovelty,
		Stage:  stageName(e.Stage),
		Entry:  journal.Int(e.ID),
		Parent: journal.Int(e.Parent),
		Depth:  e.Depth,
		Steps:  e.Steps,
		Len:    len(e.Data),
		Cov:    len(e.Cov),
		Cells:  e.FirstCells,
	})
	return e
}

// updateTopRated implements AFL's top_rated bookkeeping: for every map
// index the entry covers, it becomes the champion if it is
// faster-and-smaller (steps * len) than the incumbent. The favored
// corpus itself is recomputed lazily, once per queue cycle, as AFL's
// cull_queue does.
func (f *Fuzzer) updateTopRated(e *Entry) {
	score := e.Steps * int64(len(e.Data)+1)
	for _, idx := range e.Cov {
		cur, ok := f.topRated[idx]
		if !ok {
			// No incumbent champion: this entry is the first to touch
			// the cell — its discovery provenance. Recomputed the same
			// way on restore (entries replay in queue order), so the
			// sets are identical live and resumed.
			e.FirstCells = append(e.FirstCells, idx)
			f.topRated[idx] = e
		} else if score < cur.Steps*int64(len(cur.Data)+1) {
			f.topRated[idx] = e
		}
	}
}

// cullFavored recomputes the favored corpus: a greedy approximation of
// the minimal set of entries covering every known map index (the
// paper's "fast approximation fuzzers employ for the expensive set
// cover problem").
func (f *Fuzzer) cullFavored() {
	for _, e := range f.queue {
		e.Favored = false
	}
	indices := make([]uint32, 0, len(f.topRated))
	for idx := range f.topRated {
		indices = append(indices, idx)
	}
	sort.Slice(indices, func(i, j int) bool { return indices[i] < indices[j] })
	covered := make(map[uint32]bool, len(indices))
	f.pendingFavored = 0
	for _, idx := range indices {
		if covered[idx] {
			continue
		}
		e := f.topRated[idx]
		e.Favored = true
		for _, i := range e.Cov {
			covered[i] = true
		}
		if !e.WasFuzzed {
			f.pendingFavored++
		}
	}
}

// FavoredInputs returns the favored corpus inputs — the edge-preserving
// minimal queue the culling strategy retains.
func (f *Fuzzer) FavoredInputs() [][]byte {
	var out [][]byte
	for _, e := range f.queue {
		if e.Favored {
			out = append(out, append([]byte(nil), e.Data...))
		}
	}
	return out
}

// skipProbability mirrors AFL's queue-entry skipping constants.
func (f *Fuzzer) skip(e *Entry) bool {
	if e.Favored {
		return false
	}
	switch {
	case f.pendingFavored > 0:
		return f.rng.Intn(100) < 99
	case e.WasFuzzed:
		return f.rng.Intn(100) < 95
	default:
		return f.rng.Intn(100) < 75
	}
}

// energy computes the havoc iteration budget for an entry, a compact
// version of AFL's calculate_score.
func (f *Fuzzer) energy(e *Entry) int {
	score := 100.0
	if n := int64(len(f.queue)); n > 0 {
		avgSteps := float64(f.sumSteps) / float64(n)
		switch r := float64(e.Steps) / maxF(avgSteps, 1); {
		case r > 4:
			score *= 0.25
		case r > 2:
			score *= 0.5
		case r < 0.5:
			score *= 2
		}
		avgCov := float64(f.sumCov) / float64(n)
		switch r := float64(len(e.Cov)) / maxF(avgCov, 1); {
		case r > 1.5:
			score *= 1.5
		case r < 0.5:
			score *= 0.75
		}
	}
	switch {
	case e.Depth >= 14:
		score *= 3
	case e.Depth >= 8:
		score *= 2
	case e.Depth >= 4:
		score *= 1.5
	}
	if e.Handicap > 0 {
		score *= 1.5
	}
	if f.reachMax > 0 {
		// Static crash-site reachability prior: inputs whose coverage
		// borders the most reachable danger get up to 2x budget.
		best := 0
		for _, i := range e.Cov {
			if int(i) < len(f.reachW) && f.reachW[i] > best {
				best = f.reachW[i]
			}
		}
		score *= 1 + float64(best)/float64(f.reachMax)
	}
	if f.guide != nil && f.guide.wMax > 0 {
		// Analysis-guided frontier prior: inputs bordering the most
		// input-dependent unexplored branch sides get up to 2x budget
		// (the interprocedural generalization of the reach boost).
		best := 0
		for _, i := range e.Cov {
			if int(i) < len(f.guide.w) && f.guide.w[i] > best {
				best = f.guide.w[i]
			}
		}
		score *= 1 + float64(best)/float64(f.guide.wMax)
	}
	limit := 512.0
	if f.opts.Profile == ProfileAFL {
		limit = 384
	}
	if score > limit {
		score = limit
	}
	if score < 16 {
		score = 16
	}
	return int(score)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// reachWeights inverts the coverage-map index space back to program
// locations and annotates each with its static crash-site reachability
// count. Only feedbacks with exact (non-hashed) indices can be
// inverted: edge and pathafl use index = edgeBase(fn) + e, block uses
// index = blockBase(fn) + b, mirroring the instrument package's ID
// assignment. For other feedbacks it returns (nil, 0), disabling the
// boost. Colliding indices keep the larger count.
func reachWeights(prog *cfg.Program, fb instrument.Feedback, mapSize int) ([]int, int) {
	var edgeIndexed bool
	switch fb {
	case instrument.FeedbackEdge, instrument.FeedbackPathAFL:
		edgeIndexed = true
	case instrument.FeedbackBlock:
		edgeIndexed = false
	default:
		return nil, 0
	}
	r := analysis.NewReach(prog)
	w := make([]int, mapSize)
	mask := uint32(mapSize - 1)
	maxW := 0
	note := func(idx uint32, c int) {
		i := idx & mask
		if c > w[i] {
			w[i] = c
		}
		if c > maxW {
			maxW = c
		}
	}
	var base uint32
	for fi, f := range prog.Funcs {
		if edgeIndexed {
			for e := range f.Edges {
				note(base+uint32(e), r.Block(fi, f.Edges[e].To))
			}
			base += uint32(len(f.Edges))
		} else {
			for b := range f.Blocks {
				note(base+uint32(b), r.Block(fi, b))
			}
			base += uint32(len(f.Blocks))
		}
	}
	return w, maxW
}

// processNew enqueues a novel input produced during fuzzing; parent is
// the queue entry the mutation started from.
func (f *Fuzzer) processNew(data []byte, out execOutcome, depth, parent int) {
	if out.novelty == coverage.NoNew || out.res.Status != vm.StatusOK {
		return
	}
	e := f.enqueue(data, out.cov, out.res.Steps, depth, parent, false)
	f.cmplogStage(e, out.res.Cmps)
}

// SetCheckpointHook registers fn, called after every fuzzed queue entry
// — a deterministic safe point at which Snapshot captures complete
// campaign state. The hook must not mutate the fuzzer beyond taking
// snapshots; returning false makes Fuzz return early (graceful
// shutdown), leaving the campaign resumable from the last snapshot.
func (f *Fuzzer) SetCheckpointHook(fn func(*Fuzzer) bool) { f.hook = fn }

// Fuzz runs the campaign until the execution counter reaches budget.
// It can be called repeatedly with growing budgets: an in-flight queue
// cycle (including one restored by Restore) is continued, not
// restarted.
func (f *Fuzzer) Fuzz(budget int64) {
	if len(f.queue) == 0 {
		// Never fuzz an empty queue: synthesise a minimal seed.
		f.AddSeed([]byte("seed"))
		if len(f.queue) == 0 {
			// Even the fallback seed crashed; queue it blind so
			// mutation has a starting point.
			f.enqueue([]byte("seed"), nil, 1, 0, -1, true)
		}
	}
	if f.samplingRestored {
		// A resumed campaign keeps the original sampling schedule so its
		// history matches an uninterrupted run's exactly.
		f.samplingRestored = false
	} else {
		f.sampleEvery = budget / int64(f.opts.HistorySamples)
		if f.sampleEvery <= 0 {
			f.sampleEvery = 1
		}
		f.nextSample = f.stats.Execs + f.sampleEvery
	}
	for f.stats.Execs < budget {
		if !f.midCycle {
			f.cullFavored()
			f.emit(journal.Event{
				Kind:    journal.KindCycle,
				Cycle:   f.stats.Cycles,
				Queue:   len(f.queue),
				Cov:     len(f.topRated),
				Crashes: len(f.crashes),
				Bugs:    len(f.bugs),
			})
			// Cycle starts are the CGT engine's replan boundary: the
			// probe-elision plan is recomputed from the virgin map
			// here and nowhere else inside the loop, so the plan is a
			// deterministic function of cycle-start campaign state.
			// Guided campaigns refresh their frontier weights at the
			// same boundary, for the same determinism property.
			f.replanCGT()
			if f.cgt != nil {
				// Emitted here, not inside replanCGT: Restore replans
				// too, and a restore must not add events an
				// uninterrupted campaign would not have.
				f.emit(journal.Event{
					Kind:   journal.KindReplan,
					Cycle:  f.stats.Cycles,
					Elided: f.cgt.elided,
					Sites:  f.cgt.patch.NumSites(),
				})
			}
			f.updateGuide()
			f.qi, f.qlen = 0, len(f.queue)
			f.midCycle = true
		}
		for f.qi < f.qlen && f.stats.Execs < budget {
			e := f.queue[f.qi]
			f.qi++
			if f.skip(e) {
				continue
			}
			f.fuzzOne(e, budget)
			if e.Favored && !e.WasFuzzed {
				f.pendingFavored--
			}
			e.WasFuzzed = true
			for f.stats.Execs >= f.nextSample {
				f.sample()
				f.nextSample += f.sampleEvery
			}
			if f.opts.Status != nil {
				f.maybeStatus()
			}
			if f.tel != nil && f.stats.Execs >= f.nextPublish {
				f.publishTelemetry()
				f.nextPublish = f.stats.Execs + telemetryEvery
			}
			if f.hook != nil && !f.hook(f) {
				return
			}
		}
		f.stats.Cycles++
		if f.qi >= f.qlen {
			f.midCycle = false
		}
	}
	f.sample()
	f.publishTelemetry()
	// The finish event closes a completed budget; interrupted runs
	// (checkpoint hook returning false) return inside the loop without
	// one, and emit it when the resumed campaign completes — so an
	// uninterrupted and a resumed journal end identically. Its Execs
	// is the authoritative exec count the stats audit cross-checks
	// against fuzzer_stats.
	f.emit(journal.Event{
		Kind:    journal.KindFinish,
		Cycle:   f.stats.Cycles,
		Queue:   len(f.queue),
		Cov:     len(f.topRated),
		Crashes: len(f.crashes),
		Bugs:    len(f.bugs),
	})
	if f.jrnl != nil {
		f.jrnl.Flush()
	}
}

// maybeStatus emits the periodic status line: engine, execution count,
// measured execs/sec over the last interval, and campaign counters.
// Pacing is wall-clock first (StatusPeriod, default 1s) with an
// exec-count fallback (StatusEvery), so slow or tight-limit subjects
// report on time while fast ones cannot flood the terminal between
// clock reads. Display only: nothing here feeds back into campaign
// state.
func (f *Fuzzer) maybeStatus() {
	now := time.Now()
	if f.statusAt.IsZero() {
		f.statusAt, f.statusExecs = now, f.stats.Execs
		return
	}
	period := f.opts.StatusPeriod
	if period <= 0 {
		period = time.Second
	}
	every := f.opts.StatusEvery
	if every <= 0 {
		every = 50000
	}
	if now.Sub(f.statusAt) < period && f.stats.Execs-f.statusExecs < every {
		return
	}
	rate := 0.0
	if dt := now.Sub(f.statusAt).Seconds(); dt > 0 {
		rate = float64(f.stats.Execs-f.statusExecs) / dt
	}
	fmt.Fprintf(f.opts.Status, "[pafuzz] engine=%s execs=%d rate=%.0f/s queue=%d cov=%d crashes=%d bugs=%d\n",
		f.EngineName(), f.stats.Execs, rate, len(f.queue), f.coveredCount(), f.stats.CrashExecs, len(f.bugs))
	f.statusAt, f.statusExecs = now, f.stats.Execs
}

// Telemetry returns the attached recorder (nil when telemetry is off).
func (f *Fuzzer) Telemetry() *telemetry.Recorder { return f.tel }

// telemetryEvery is the minimum exec spacing between boundary
// publishes. Small enough that a 1s collector tick virtually always
// sees a fresh snapshot, large enough that the per-publish queue scans
// vanish from campaign cost. Fuzz still publishes unconditionally when
// the budget runs out, so the final snapshot is exact.
const telemetryEvery = 1000

// publishTelemetry copies the campaign counters into the recorder —
// one snapshot per queue-entry boundary, the only place the campaign
// touches the telemetry layer.
func (f *Fuzzer) publishTelemetry() {
	if f.tel == nil {
		return
	}
	pending := int64(0)
	for _, e := range f.queue {
		if !e.WasFuzzed {
			pending++
		}
	}
	var fastExecs, retraces, replans, elided, patchSites int64
	if f.cgt != nil {
		fastExecs = f.cgt.fastExecs
		retraces = f.cgt.retraces
		replans = f.cgt.replans
		elided = int64(f.cgt.elided)
		patchSites = int64(f.cgt.patch.NumSites())
	}
	f.tel.Publish(telemetry.Counters{
		Execs:            f.stats.Execs,
		Timeouts:         f.stats.Timeouts,
		CrashExecs:       f.stats.CrashExecs,
		TotalSteps:       f.stats.TotalSteps,
		Cycles:           int64(f.stats.Cycles),
		Added:            f.stats.Added,
		UniqueCrashes:    int64(len(f.crashes)),
		UniqueBugs:       int64(len(f.bugs)),
		AFLUniqueCrashes: f.stats.AFLUniqueCrashes,
		InternalFaults:   f.stats.InternalFaults,
		QueueLen:         int64(len(f.queue)),
		Favored:          int64(f.favoredCount()),
		PendingTotal:     pending,
		PendingFavored:   int64(f.pendingFavored),
		CurItem:          int64(f.qi - 1),
		MaxDepth:         int64(f.maxDepth),
		CoverageCount:    int64(len(f.topRated)),
		CoverageBits:     int64(f.virgin.Count()),
		MapSize:          int64(f.cov.Len()),
		SeedExecs:        f.stats.SeedExecs,
		HavocExecs:       f.stats.HavocExecs,
		SpliceExecs:      f.stats.SpliceExecs,
		CmplogExecs:      f.stats.CmplogExecs,
		FastExecs:        fastExecs,
		Retraces:         retraces,
		Replans:          replans,
		ElidedProbes:     elided,
		PatchSites:       patchSites,
	})
}

func (f *Fuzzer) sample() {
	f.history = append(f.history, HistPoint{
		Execs:     f.stats.Execs,
		QueueLen:  len(f.queue),
		CovCount:  f.coveredCount(),
		Crashes:   f.stats.CrashExecs,
		UniqBugs:  len(f.bugs),
		Favored:   f.favoredCount(),
		PathCount: f.stats.Added,
	})
}

func (f *Fuzzer) favoredCount() int {
	n := 0
	for _, e := range f.queue {
		if e.Favored {
			n++
		}
	}
	return n
}

func (f *Fuzzer) coveredCount() int {
	// Count consumed virgin entries indirectly via topRated keys.
	return len(f.topRated)
}

// fuzzOne runs the havoc/splice stages for one entry. The telemetry
// span covers the whole entry budget (nested cmplog stages triggered
// by novel finds record their own spans inside it); havoc vs splice
// executions are told apart via the deterministic stage counters.
func (f *Fuzzer) fuzzOne(e *Entry, budget int64) {
	if f.tel != nil {
		defer f.tel.StartSpan(telemetry.StageHavoc)()
	}
	var gMask []interproc.ByteRange
	var gTotal int64
	if f.guide != nil {
		gMask, gTotal = f.guideMaskFor(e)
	}
	iters := f.energy(e)
	for i := 0; i < iters && f.stats.Execs < budget; i++ {
		// The frontier mask focuses alternate iterations only: the even
		// ones hammer the dependency bytes of the rarest bordering
		// frontier branch, the odd ones keep the unrestricted havoc that
		// finds coverage the analysis did not point at. Focusing every
		// iteration measurably starves broad exploration on subjects
		// whose frontier branches resist flipping (flvmeta, imginfo).
		if gTotal > 0 && i%2 == 0 {
			f.mut.mask, f.mut.maskTotal = gMask, gTotal
		} else {
			f.mut.mask, f.mut.maskTotal = nil, 0
		}
		var cand []byte
		if len(f.queue) > 1 && f.rng.Intn(100) < 15 {
			other := f.queue[f.rng.Intn(len(f.queue))]
			cand = f.mut.splice(e.Data, other.Data)
			f.curStage = stageSplice
		} else {
			cand = f.mut.havoc(e.Data)
			f.curStage = stageHavoc
		}
		out := f.execute(cand)
		f.processNew(cand, out, e.Depth+1, e.ID)
	}
}

// cmplogStage is the input-to-state stage run once per new queue entry
// (AFL++'s cmplog/RedQueen analogue): observed comparison operands are
// located in the input and replaced with the other side, and compared
// constants feed the auto-dictionary.
func (f *Fuzzer) cmplogStage(e *Entry, cmps []vm.CmpObs) {
	if f.opts.Profile == ProfileAFL {
		return
	}
	if f.tel != nil {
		defer f.tel.StartSpan(telemetry.StageCmplog)()
	}
	prevStage := f.curStage
	f.curStage = stageCmplog
	defer func() { f.curStage = prevStage }()
	if len(cmps) > 0 {
		// The bytecode machine's Result.Cmps aliases its pooled buffer,
		// which the executions this stage performs would clobber mid-walk;
		// snapshot it first.
		cmps = append([]vm.CmpObs(nil), cmps...)
	}
	attempts := 0
	const maxAttempts = 48
	for _, obs := range cmps {
		if obs.A == obs.B {
			continue
		}
		if f.guide != nil && f.guide.skipCmp(obs) {
			// Every static site matching this observation's signature is
			// input-independent: substitution can never flip it.
			continue
		}
		// Auto-dictionary: constants under comparison become tokens.
		f.addTokenVal(obs.A)
		f.addTokenVal(obs.B)
		for _, dir := range [2][2]int64{{obs.A, obs.B}, {obs.B, obs.A}} {
			if attempts >= maxAttempts {
				return
			}
			find, repl := dir[0], dir[1]
			// Length-to-state: conditions on len(input) are satisfied
			// by resizing rather than byte search.
			if find == int64(len(e.Data)) && repl >= 0 && repl <= int64(f.opts.MaxInputLen) && find != repl {
				attempts++
				f.tryResize(e, int(repl))
				continue
			}
			attempts += f.trySubstitute(e, find, repl, maxAttempts-attempts)
		}
	}
}

func (f *Fuzzer) tryResize(e *Entry, n int) {
	data := f.scratchBuf(n)
	copy(data, e.Data)
	for i := len(e.Data); i < n; i++ {
		data[i] = byte(f.rng.Intn(256))
	}
	out := f.execute(data)
	f.processNew(data, out, e.Depth+1, e.ID)
}

// scratchBuf returns the pooled cmplog candidate buffer resized to n;
// contents are unspecified and callers overwrite every byte they use.
func (f *Fuzzer) scratchBuf(n int) []byte {
	if cap(f.scratch) < n {
		f.scratch = make([]byte, 0, n*2)
	}
	return f.scratch[:n]
}

// trySubstitute searches the 1/2/4/8-byte little- and big-endian
// encodings of find in the input and replaces them with repl, executing
// each variant. It returns the number of executions spent.
func (f *Fuzzer) trySubstitute(e *Entry, find, repl int64, allow int) int {
	spent := 0
	var feBuf, reBuf [8]byte
	for _, w := range []int{1, 2, 4, 8} {
		if spent >= allow {
			return spent
		}
		if !fitsWidth(find, w) || !fitsWidth(repl, w) {
			continue
		}
		fe := encodeWidthTo(&feBuf, find, w, false)
		re := encodeWidthTo(&reBuf, repl, w, false)
		for _, be := range []bool{false, true} {
			if w == 1 && be {
				continue
			}
			if be {
				fe = encodeWidthTo(&feBuf, find, w, true)
				re = encodeWidthTo(&reBuf, repl, w, true)
			}
			for p := 0; p+w <= len(e.Data) && spent < allow; p++ {
				if !bytesEq(e.Data[p:p+w], fe) {
					continue
				}
				data := f.scratchBuf(len(e.Data))
				copy(data, e.Data)
				copy(data[p:], re)
				out := f.execute(data)
				f.processNew(data, out, e.Depth+1, e.ID)
				spent++
			}
		}
	}
	return spent
}

func bytesEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fitsWidth(v int64, w int) bool {
	switch w {
	case 1:
		return v >= -128 && v <= 255
	case 2:
		return v >= -32768 && v <= 65535
	case 4:
		return v >= -2147483648 && v <= 4294967295
	default:
		return true
	}
}

// encodeWidthTo writes the w-byte encoding of v into buf and returns
// the filled prefix; the hot cmplog paths use it to stay off the heap.
func encodeWidthTo(buf *[8]byte, v int64, w int, bigEndian bool) []byte {
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	out := buf[:w]
	if bigEndian {
		for i, j := 0, w-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

func encodeWidth(v int64, w int, bigEndian bool) []byte {
	var buf [8]byte
	return append([]byte(nil), encodeWidthTo(&buf, v, w, bigEndian)...)
}

// minWidth is the fewest bytes that hold v, for dictionary tokens.
func minWidth(v int64) int {
	switch {
	case v >= 0 && v <= 255:
		return 1
	case v >= -32768 && v <= 65535:
		return 2
	case v >= -2147483648 && v <= 4294967295:
		return 4
	default:
		return 8
	}
}

// encodeMin encodes v in the fewest bytes that hold it (little-endian),
// for dictionary tokens.
func encodeMin(v int64) []byte {
	return encodeWidth(v, minWidth(v), false)
}

// addTokenVal feeds v's minimal encoding to the auto-dictionary without
// allocating; addToken copies on actual insertion.
func (f *Fuzzer) addTokenVal(v int64) {
	var buf [8]byte
	f.addToken(encodeWidthTo(&buf, v, minWidth(v), false))
}
