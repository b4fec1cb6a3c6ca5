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
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

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

// maxInputLen caps every input the fuzzer queues or generates.
const maxInputLen = 512

// Options configures a fuzzing campaign.
type Options struct {
	// Feedback selects the coverage feedback mechanism.
	Feedback instrument.Feedback
	// MapSize is the coverage map size (power of two);
	// coverage.DefaultMapSize when zero.
	MapSize int
	// Entry is the entry function name ("main" when empty).
	Entry string
	// Seed seeds the campaign's random source.
	Seed int64
	// Limits bounds each execution; vm.DefaultLimits() when zero.
	Limits vm.Limits
	// Profile selects AFL++ vs AFL behaviour.
	Profile Profile
	// KeepCrashInputs retains the first crashing input per unique
	// stack hash and per bug key (default false: reports then carry
	// crash inputs as nil).
	KeepCrashInputs bool
	// FaultInjector, when non-nil, is consulted before every execution
	// and simulates an engine panic when it returns true. It exists
	// for the campaign durability fault-injection tests; see also
	// vm.Limits.InjectPanicAtStep for panics injected mid-execution.
	FaultInjector func(execs int64, data []byte) bool
	// Engine selects the execution engine (EngineAuto, the compiled
	// bytecode engine, by default).
	Engine Engine
	// Telemetry, when non-nil, receives counter snapshots and stage
	// spans. Publishing happens only at queue-entry boundaries (never
	// inside the exec loop) and is strictly observational: attaching a
	// recorder cannot change what the campaign does. The recorder's
	// collector turns the snapshots into the series, the AFL files and
	// the live status line.
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
	// JournalShared is ignored: Restore drops only the restoring
	// worker's own events (journal.Writer.TruncateTo), so a journal
	// shared across fleet workers needs no special case.
	//
	// Deprecated: the field stays until the benchmark stops setting it.
	JournalShared bool
}

// Validate rejects misconfigured options before defaulting can mask
// them: a negative or non-power-of-two map and out-of-range enum
// values. New calls it on the raw (pre-default) options, so a zero
// field still means "use the default" while a negative one is an error
// instead of silent behaviour.
func (o Options) Validate() error {
	if o.MapSize < 0 {
		return fmt.Errorf("fuzz: MapSize %d is negative", o.MapSize)
	}
	if o.MapSize > 0 && o.MapSize&(o.MapSize-1) != 0 {
		return fmt.Errorf("fuzz: MapSize %d is not a power of two", o.MapSize)
	}
	if o.Engine < EngineAuto || o.Engine > EngineCGT {
		return fmt.Errorf("fuzz: unknown engine %d", int(o.Engine))
	}
	if o.Profile != ProfileAFLPlusPlus && o.Profile != ProfileAFL {
		return fmt.Errorf("fuzz: unknown profile %d", int(o.Profile))
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
	// rng is the campaign's one random stream, shared with the
	// mutator; snapshots carry its whole state.
	rng *rng
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
	// memo answers repeated executions within one AddSeed or fuzzOne.
	memo *execMemo

	queue    []*Entry
	topRated map[uint32]*Entry
	// pendingFavored counts favored, not-yet-fuzzed entries.
	pendingFavored int

	// crashes dedups by stack hash (top-5 frames).
	crashes map[uint64]*CrashRec
	// bugs dedups by ground-truth bug key.
	bugs map[string]*CrashRec

	stats Stats
	// faults lists quarantined engine panics (capped; the full
	// count is in stats.InternalFaults).
	faults []InternalFault

	// avgSteps/avgCov track running means for the power schedule.
	sumSteps int64
	sumCov   int64

	dictSeen map[string]bool

	// scratch is the reusable candidate buffer of the cmplog stage
	// (substitution and resize variants); every retention path copies,
	// so the buffer is recycled across variants.
	scratch []byte

	// Fuzz-loop position, promoted to fields so a checkpoint taken
	// between queue entries can resume mid-cycle: qi is the next queue
	// index to fuzz, qlen the cycle's frozen queue length, midCycle
	// whether a cycle is in flight.
	qi, qlen int
	midCycle bool

	// hook, when set, runs after every fuzzed queue entry — a
	// deterministic safe point where full state can be snapshotted.
	// Returning false stops Fuzz early (graceful shutdown).
	hook func(*Fuzzer) bool

	// curStage attributes executions to the stage that issued them
	// (stage counters in Stats); maxDepth tracks the deepest mutation
	// chain in the queue. Both are deterministic campaign state.
	curStage uint8
	maxDepth int

	// tel, when non-nil, receives counter snapshots and stage spans —
	// observation only, at queue-entry granularity. nextPublish paces
	// the snapshot copies (display only): the collector samples at
	// wall-clock intervals, so publishing every boundary would pay the
	// queue scans thousands of times per second for snapshots nobody
	// reads.
	tel         *telemetry.Recorder
	nextPublish int64

	// jrnl, when non-nil, receives structured lifecycle events; events
	// counts how many this campaign has emitted. The counter advances
	// even with no writer attached — it is checkpointed (so resume can
	// truncate the journal back to the checkpoint's event) and must not
	// depend on whether journaling happens to be on.
	jrnl   *journal.Writer
	events uint64
	// finished records that the finish event for the current budget has
	// been emitted; it is checkpointed, so resuming a finished campaign
	// emits no second one.
	finished bool
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
	cp, ok := instrument.CompiledFor(opts.Feedback, prog, instrument.Config{})
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown feedback %v", opts.Feedback)
	}
	m := coverage.NewMap(opts.MapSize)
	var cgt *cgtState
	if opts.Engine == EngineCGT {
		cgt = newCGT(cp, m, opts)
	}
	f := &Fuzzer{
		prog:        prog,
		opts:        opts,
		rng:         newRNG(opts.Seed),
		mach:        bytecode.NewMachine(cp, m, opts.Limits),
		cgt:         cgt,
		cov:         m,
		virgin:      coverage.NewVirgin(opts.MapSize),
		crashVirgin: coverage.NewVirgin(opts.MapSize),
		memo:        newExecMemo(),
		topRated:    make(map[uint32]*Entry),
		crashes:     make(map[uint64]*CrashRec),
		bugs:        make(map[string]*CrashRec),
		dictSeen:    make(map[string]bool),
		tel:         opts.Telemetry,
		jrnl:        opts.Journal,
	}
	f.mut = &mutator{
		rng:    f.rng,
		maxLen: maxInputLen,
		rich:   opts.Profile == ProfileAFLPlusPlus,
	}
	return f, nil
}

// Execs returns the campaign execution counter.
func (f *Fuzzer) Execs() int64 { return f.stats.Execs }

// StatsSnapshot returns a copy of the campaign counters. Unlike Report
// it mutates nothing (Report re-culls the favored corpus), so it is
// safe to call from boundary hooks without perturbing determinism.
func (f *Fuzzer) StatsSnapshot() Stats { return f.stats }

// QueueLen returns the current queue size.
func (f *Fuzzer) QueueLen() int { return len(f.queue) }

// QueueInputs returns copies of all queue inputs (the saved corpus).
func (f *Fuzzer) QueueInputs() [][]byte {
	var out [][]byte
	for _, e := range f.queue {
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
// inside the engine (a harness defect, or one injected through
// vm.Limits.InjectPanicAtStep) is recovered and reported via ok=false
// instead of unwinding through the fuzz loop and killing the campaign.
func (f *Fuzzer) runProtected(mach *bytecode.Machine, data []byte) (res vm.Result, faultMsg string, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			faultMsg = fmt.Sprint(r)
			ok = false
		}
	}()
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
// nops.
//
// Deprecated: it reads 0 since the optimizer is deleted; see
// bytecode.Program.NumNops. It stays only for the campaign benchmark.
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
// CGT engine runs its patched fast machine instead, unless its plan
// elides nothing, and retraces under full instrumentation only when the
// campaign reads the map itself (see cgt.go); everything else is
// shared. An input the memo holds is charged exactly as a run would
// be, without running it (see memo.go).
func (f *Fuzzer) execute(data []byte) execOutcome {
	// The injector is consulted once per exec index, before the memo, so
	// a fault scheduled on a repeated input still fires.
	if inj := f.opts.FaultInjector; inj != nil && inj(f.stats.Execs, data) {
		f.chargeExec()
		return f.quarantine(data, "fuzz: injected execution fault")
	}
	h := f.memo.hash(data)
	var res vm.Result
	nov := coverage.NoNew
	if m := f.memo.lookup(h, data); m != nil {
		f.chargeExec()
		f.memo.hits++
		res = m.res
	} else {
		fast := f.cgt != nil && !f.cgt.idle
		mach := f.mach
		if fast {
			mach = f.cgt.fast
		}
		f.cov.Reset()
		var faultMsg string
		var ok bool
		res, faultMsg, ok = f.runProtected(mach, data)
		f.chargeExec()
		if !ok {
			return f.quarantine(data, faultMsg)
		}
		f.cov.ClassifySparse()
		nov = f.virgin.MergeSparse(f.cov)
		if fast {
			res = f.retraceIfRead(data, res, nov)
		}
		if res.Status == vm.StatusCrash && f.crashVirgin.MergeSparse(f.cov) != coverage.NoNew {
			f.stats.AFLUniqueCrashes++
		}
		f.memo.store(h, data, res)
	}
	f.stats.TotalSteps += res.Steps
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
		f.recordCrash(data, res.Crash)
	}
	return out
}

// chargeExec counts one execution against the campaign and the stage
// that issued it.
func (f *Fuzzer) chargeExec() {
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
}

// quarantine ends an execution that panicked: its (possibly partial)
// coverage is discarded so the virgin maps and queue see a no-op, and
// the input is kept as an internal-fault record. A mid-run injected
// panic aborts the CGT fast run at the exact step it would abort the
// pristine one (patched opcodes charge no steps), and there is no
// retrace.
func (f *Fuzzer) quarantine(data []byte, msg string) execOutcome {
	f.recordFault(data, msg)
	f.cov.Reset()
	return execOutcome{res: vm.Result{Status: vm.StatusOK}}
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
	if len(data) > maxInputLen {
		data = data[:maxInputLen]
	}
	f.memo.reset()
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
		// Only a seed admitted into an empty queue gets here. AddSeed
		// cleared the memo, so its execution ran the machine, and f.cov
		// holds its map.
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
		switch r := float64(e.Steps) / max(avgSteps, 1); {
		case r > 4:
			score *= 0.25
		case r > 2:
			score *= 0.5
		case r < 0.5:
			score *= 2
		}
		avgCov := float64(f.sumCov) / float64(n)
		switch r := float64(len(e.Cov)) / max(avgCov, 1); {
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
	if f.stats.Execs < budget {
		f.finished = false
	} else if f.midCycle && !f.finished {
		// The checkpoint hook stopped the campaign on the exec that
		// reached the budget, before the loop below counted its cycle,
		// and the loop will not run again: count the cycle here, as the
		// uninterrupted campaign did.
		f.endCycle()
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
			if f.tel != nil && f.stats.Execs >= f.nextPublish {
				f.publishTelemetry()
				f.nextPublish = f.stats.Execs + telemetryEvery
			}
			if f.hook != nil && !f.hook(f) {
				return
			}
		}
		f.endCycle()
	}
	f.publishTelemetry()
	// The finish event closes a completed budget, once; interrupted runs
	// (checkpoint hook returning false) return inside the loop without
	// one, and emit it when the resumed campaign completes — so an
	// uninterrupted and a resumed journal end identically, and resuming
	// a campaign that already finished adds nothing. Its Execs is the
	// authoritative exec count the stats audit cross-checks against
	// fuzzer_stats.
	if !f.finished {
		f.finished = true
		f.emit(journal.Event{
			Kind:    journal.KindFinish,
			Cycle:   f.stats.Cycles,
			Queue:   len(f.queue),
			Cov:     len(f.topRated),
			Crashes: len(f.crashes),
			Bugs:    len(f.bugs),
		})
	}
	if f.jrnl != nil {
		f.jrnl.Flush()
	}
}

// endCycle counts the queue loop's pass, which ended at the end of the
// queue or at the budget, and leaves the cycle once the queue is done.
func (f *Fuzzer) endCycle() {
	f.stats.Cycles++
	if f.qi >= f.qlen {
		f.midCycle = false
	}
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
// one snapshot per paced queue-entry boundary, the only place the
// campaign touches the telemetry layer.
func (f *Fuzzer) publishTelemetry() {
	if f.tel != nil {
		f.tel.Publish(f.Counters())
	}
}

// Counters maps the campaign state to the telemetry counter set: the
// one mapping behind every snapshot a single campaign or a fleet worker
// publishes. It reads state without mutating it, so it is safe at any
// boundary.
func (f *Fuzzer) Counters() telemetry.Counters {
	pending := int64(0)
	for _, e := range f.queue {
		if !e.WasFuzzed {
			pending++
		}
	}
	c := telemetry.Counters{
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
		RepeatExecs:      f.memo.hits,
	}
	if f.cgt != nil {
		c.FastExecs = f.cgt.fastExecs
		c.Retraces = f.cgt.retraces
		c.Replans = f.cgt.replans
		c.ElidedProbes = int64(f.cgt.elided)
		c.PatchSites = int64(f.cgt.patch.NumSites())
	}
	return c
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

// fuzzOne runs the havoc/splice stages for one entry. The telemetry
// span covers the whole entry budget (nested cmplog stages triggered
// by novel finds record their own spans inside it); havoc vs splice
// executions are told apart via the deterministic stage counters.
func (f *Fuzzer) fuzzOne(e *Entry, budget int64) {
	if f.tel != nil {
		defer f.tel.StartSpan(telemetry.StageHavoc)()
	}
	f.memo.reset()
	iters := f.energy(e)
	for i := 0; i < iters && f.stats.Execs < budget; i++ {
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
			if find == int64(len(e.Data)) && repl >= 0 && repl <= maxInputLen && find != repl {
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
			for p := 0; spent < allow; p++ {
				i := bytes.Index(e.Data[p:], fe)
				if i < 0 {
					break
				}
				p += i
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

// addTokenVal feeds v's minimal encoding to the auto-dictionary without
// allocating; addToken copies on actual insertion.
func (f *Fuzzer) addTokenVal(v int64) {
	var buf [8]byte
	f.addToken(encodeWidthTo(&buf, v, minWidth(v), false))
}
