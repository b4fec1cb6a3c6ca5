package fuzz

import (
	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// This file is the fuzzing side of the coverage-guided tracing (CGT)
// engine (-engine=cgt): tracing-on-demand execution with self-patching
// probe elision and coverage-preserving retrace.
//
// The fast path runs a patched clone of the compiled program in which
// every probe whose coverage-map cell is consumed has been rewritten
// to a non-probing variant — statically for probes with compile-time
// map cells (bytecode.Patchable), record-side for dynamic-index probes
// (Machine.SetElide). A cell is consumed once every hit-count bucket
// any execution can still produce there has been observed in the
// virgin map: all eight buckets under the baseline rule, or just the
// reachable ones when the static hit-count bound analysis applies
// (edge feedback; see bytecode.CellHitBounds). A fast run
// therefore produces a partial coverage map: exact counts on live
// cells, zero on consumed cells.
//
// Why that partial map decides novelty exactly: a consumed cell's
// remaining virgin bits, if any, correspond to buckets no execution
// can reach, so a full run's writes there can never clear another bit;
// and live cells receive exactly the same counts under both programs
// (elision removes writes, it never reroutes control flow or perturbs
// hit counts elsewhere). Hence MergeSparse(partial) returns the same
// Novelty verdict and performs the same virgin mutation as
// MergeSparse(full) — the elision rule of coverage-preserving
// coverage-guided tracing (Nagy et al.), tightened by loop-bound
// reasoning.
//
// The merge verdict is also the retrace trigger. Whenever the campaign
// needs the canonical full classified map — a novel input about to be
// queued, a crash to deduplicate against the crash-virgin map, or the
// very first seed (whose coverage is read back unconditionally) — the
// input is re-executed once under the pristine fully-instrumented
// machine. Everything downstream (calibration, queue entries, novelty
// decisions, crash records, reports) consumes only retraced maps or
// merge verdicts, so campaign results are byte-identical to
// EngineAuto; the retrace/elision counters live here, not in Stats, to
// keep Report comparisons exact. The CGT engine shares execute with the
// default engine and differs only in which machine runs first and in
// the retrace (retraceIfRead); while the plan elides nothing
// (cgtState.idle) it runs the pristine machine alone, as the default
// engine does. An execution the memo answers (memo.go) runs neither
// machine.
//
// The patch plan is recomputed only at deterministic boundaries —
// queue-cycle starts (right after the favored-corpus cull) and
// checkpoint restore — never mid-cycle, and always as a pure function
// of the current virgin map, so a resumed campaign derives its plans
// from the same state as an uninterrupted one.

// cgtState carries the CGT engine's machinery and its private
// counters. All counters are engine-internal: they never appear in
// Stats, Report, or Snapshot (reports must be byte-identical to
// EngineAuto, and a restored campaign simply replans from the restored
// virgin map).
type cgtState struct {
	patch    *bytecode.Patchable
	fast     *bytecode.Machine
	consumed *coverage.Bitset
	// fastExecs counts fast-path executions, retraces the full-
	// instrumentation re-executions among them, replans the plan
	// recomputations; elided mirrors the current plan's elided-site
	// count (a gauge).
	fastExecs int64
	retraces  int64
	replans   int64
	elided    int
	// idle is set while the plan elides nothing: no consumed cell, so
	// no patched site either, as in every fresh campaign until its
	// first replan. The fast machine would then differ from the
	// pristine one only in not logging comparisons, so executions run
	// on the pristine machine and are never retraced. Each replan sets
	// it anew.
	idle bool
}

// newCGT builds the CGT machinery over the compiled program cp, whose
// fast machine writes into the campaign's map m.
func newCGT(cp *bytecode.Program, m *coverage.Map, opts Options) *cgtState {
	patch := bytecode.NewPatchable(cp, opts.MapSize)
	// Static hit-count bounds tighten the consumption rule for
	// feedbacks with compile-time cells (nil otherwise).
	patch.SetHitBounds(cp.CellHitBounds(opts.Entry))
	consumed := coverage.NewBitset(opts.MapSize)
	// The fast machine skips comparison-operand collection: cmp
	// observations are only ever consumed for inputs that get queued,
	// and every queued input was retraced on the fully-instrumented
	// machine, whose result (cmps included) replaces the fast one.
	// Recording has no effect on execution, steps, or coverage.
	fastLim := opts.Limits
	fastLim.MaxCmpObs = 0
	fast := bytecode.NewMachine(patch.Program(), m, fastLim)
	fast.SetElide(consumed)
	return &cgtState{patch: patch, fast: fast, consumed: consumed, idle: true}
}

// CGTInfo is the CGT engine's observability snapshot, surfaced for
// telemetry and the benchmark harness.
type CGTInfo struct {
	// FastExecs counts executions dispatched to the patched machine;
	// Retraces counts how many of them were re-executed under full
	// instrumentation. The steady-state retrace rate is
	// Retraces/FastExecs over a trailing window.
	FastExecs int64
	Retraces  int64
	// Replans counts patch-plan recomputations (cycle starts and
	// checkpoint restores).
	Replans int64
	// ElidedSites of PatchSites statically patchable probe sites are
	// currently patched out; ConsumedCells is the map-wide count of
	// consumed cells (dynamic-probe elision uses it too).
	ElidedSites   int
	PatchSites    int
	ConsumedCells int
}

// CGTInfo reports the coverage-guided tracing engine's internal
// counters; ok is false for other engines.
func (f *Fuzzer) CGTInfo() (info CGTInfo, ok bool) {
	if f.cgt == nil {
		return CGTInfo{}, false
	}
	return CGTInfo{
		FastExecs:     f.cgt.fastExecs,
		Retraces:      f.cgt.retraces,
		Replans:       f.cgt.replans,
		ElidedSites:   f.cgt.elided,
		PatchSites:    f.cgt.patch.NumSites(),
		ConsumedCells: f.cgt.consumed.Count(),
	}, true
}

// replanCGT recomputes the probe-elision plan from the virgin map. It
// is called only at queue-cycle starts and checkpoint restore, so the
// plan is a deterministic function of campaign state at well-defined
// boundaries — the property the snapshot/fleet byte-identity suites
// pin down.
func (f *Fuzzer) replanCGT() {
	if f.cgt == nil {
		return
	}
	f.virgin.ConsumedInto(f.cgt.consumed, f.cgt.patch.CellMasks())
	f.cgt.elided = f.cgt.patch.Replan(f.cgt.consumed)
	f.cgt.idle = f.cgt.consumed.Count() == 0
	f.cgt.replans++
}

// retraceIfRead finishes a successful fast-path execution whose
// partial map the virgin map has already merged (verdict nov): when the
// campaign will read the map itself rather than just the verdict, it
// re-executes data under the pristine fully-instrumented machine and
// returns that result, leaving the full classified map in f.cov.
// Otherwise it returns the fast result untouched.
func (f *Fuzzer) retraceIfRead(data []byte, res vm.Result, nov coverage.Novelty) vm.Result {
	f.cgt.fastExecs++
	// The map is read on novelty (the input is being queued and its
	// classified indices recorded), on any crash (crash-virgin dedup
	// needs full-map bits), and with an empty queue (AddSeed reads the
	// map back unconditionally for the first seed). A timeout without
	// novelty needs no retrace: probes charge no steps, so the fast run
	// timed out at the identical step.
	if nov == coverage.NoNew && res.Status != vm.StatusCrash && len(f.queue) > 0 {
		return res
	}
	f.cgt.retraces++
	if f.tel != nil {
		defer f.tel.StartSpan(telemetry.StageRetrace)()
	}
	f.cov.Reset()
	full, _, ok := f.runProtected(f.mach, data)
	if !ok {
		return res
	}
	// No virgin re-merge: the partial merge already cleared every bit
	// the full map could (an elided cell's remaining virgin bits are
	// unreachable by construction). Steps were counted once; the
	// retrace's are identical.
	f.cov.ClassifySparse()
	return full
}
