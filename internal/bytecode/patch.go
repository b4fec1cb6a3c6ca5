package bytecode

import (
	"fmt"

	"repro/internal/coverage"
)

// This file is the self-patching layer of the coverage-guided tracing
// (CGT) engine: a compiled program whose statically-indexed probes can
// be rewritten in place to non-probing fast variants once their
// coverage map cell is fully consumed.
//
// The elision rule follows coverage-preserving coverage-guided tracing
// (Nagy et al., "Same Coverage, Less Bloat"): a probe writes hit counts
// into one map cell; once every hit-count bucket bit of that cell has
// been observed (its virgin bits are all cleared), no future execution
// can produce novelty there, so the write — and for static sites the
// whole probe instruction — can be removed without changing any novelty
// decision the fuzzer will ever make.
//
// Three opcodes carry a static map cell (their imm field) and have a
// non-probing twin with the same operand layout:
//
//	opProbeAdd   -> opElide   (standalone probe: becomes a free nop)
//	opAddJmp     -> opJmp     (probe fused into a trampoline jump)
//	opStepAddJmp -> opStepJmp (probe fused into a block exit)
//
// On top of the opcode flips, Replan performs jump threading: every
// static branch or jump target is forwarded past elided code — opElide
// nops and elided trampolines (opAddJmp patched to a bare opJmp) — so
// that the hot conditional-branch path pays zero dispatches for an
// elided edge probe instead of still stepping through its trampoline.
// Threaded-over instructions have no effect at all (no probe, no step
// charge, no slot writes), so step counts, timeouts, injected-fault
// positions, and crash classifications stay bit-identical between the
// patched and pristine programs. Instruction positions never move and
// the pos table is shared untouched.
//
// Dynamic-index probes (Ball-Larus path records, PathAFL segment
// flushes) cannot be patched statically — their cell is
// computed at run time — so the machine handles them record-side: see
// Machine.SetElide.

// patchSite is one patchable probe: the instruction at pc writes map
// cell cell; slow is its pristine opcode, fast the non-probing twin.
type patchSite struct {
	pc   int32
	cell uint32
	slow uint8
	fast uint8
}

// Patchable pairs an immutable compiled Program with a privately cloned
// code array that Replan patches in place. The clone shares every cold
// side table (positions, string cells, arg slots, back values) with the
// pristine program; only the 24-byte instruction array is duplicated.
// A Patchable is single-threaded, like the Machine that executes it.
type Patchable struct {
	pristine *Program
	patched  *Program
	sites    []patchSite
	// plan[i] records whether site i was elided by the last Replan —
	// the reference Verify rebuilds expected code from.
	plan []bool
	// elidedJmp[pc] marks elided opAddJmp sites during a rebuild, so
	// the threading pass can tell an elided trampoline jump from a
	// pristine opJmp (which must keep executing exactly as compiled).
	elidedJmp []bool
	elided    int
	// mask is mapSize-1, the same index mask Map.Add applies.
	mask uint32
	// cellMask, when non-nil, holds the per-map-cell reachable-bucket
	// masks from the static hit-count bound analysis (CellHitBounds);
	// the planner then consumes a cell once all *reachable* buckets are
	// seen instead of all eight. Nil falls back to the baseline
	// full-consumption rule.
	cellMask []uint8
}

// NewPatchable builds a patchable clone of p for a coverage map of
// mapSize cells (a positive power of two — probe cells are masked
// exactly as Map.Add masks its index). The clone starts fully
// instrumented; Replan applies a patch plan.
func NewPatchable(p *Program, mapSize int) *Patchable {
	if mapSize <= 0 || mapSize&(mapSize-1) != 0 {
		panic("bytecode: patchable map size must be a positive power of two")
	}
	clone := *p
	clone.code = append([]instr(nil), p.code...)
	pp := &Patchable{
		pristine:  p,
		patched:   &clone,
		elidedJmp: make([]bool, len(p.code)),
		mask:      uint32(mapSize - 1),
	}
	mask := pp.mask
	for pc := range p.code {
		var fast uint8
		switch p.code[pc].op {
		case opProbeAdd:
			fast = opElide
		case opAddJmp:
			fast = opJmp
		case opStepAddJmp:
			fast = opStepJmp
		default:
			continue
		}
		pp.sites = append(pp.sites, patchSite{
			pc:   int32(pc),
			cell: uint32(p.code[pc].imm) & mask,
			slow: p.code[pc].op,
			fast: fast,
		})
	}
	pp.plan = make([]bool, len(pp.sites))
	return pp
}

// Program returns the patched program. The pointer is stable across
// Replan calls — patches land in the shared code array, so a Machine
// built over it sees every replan without rebuilding.
func (pp *Patchable) Program() *Program { return pp.patched }

// NumSites returns the number of statically patchable probe sites.
func (pp *Patchable) NumSites() int { return len(pp.sites) }

// Elided returns how many sites the last Replan patched out.
func (pp *Patchable) Elided() int { return pp.elided }

// SetHitBounds installs the per-raw-cell hit-count bounds of the
// static bound analysis (Program.CellHitBounds) and folds them into
// per-map-cell reachable-bucket masks: raw cells colliding under the
// map mask sum their bounds, since their counts add in one cell. A nil
// bounds map — the analysis declining dynamic-index feedbacks — keeps
// the baseline full-consumption rule. As a defense against an
// emission path the bound enumeration might miss, the masks are
// dropped entirely unless every patchable site's cell is accounted
// for.
func (pp *Patchable) SetHitBounds(bounds map[uint32]int) {
	pp.cellMask = nil
	if bounds == nil {
		return
	}
	n := int(pp.mask) + 1
	sum := make([]int, n)
	seen := make([]bool, n)
	for imm, b := range bounds {
		c := imm & pp.mask
		sum[c] = satAdd(sum[c], b)
		seen[c] = true
	}
	for i := range pp.sites {
		if !seen[pp.sites[i].cell] {
			return
		}
	}
	m := make([]uint8, n)
	for i := range m {
		if seen[i] {
			m[i] = reachableBuckets(sum[i])
		} else {
			// No static probe writes this cell; only full consumption
			// (impossible for a never-written cell) may consume it.
			m[i] = 0xff
		}
	}
	pp.cellMask = m
}

// CellMasks returns the per-map-cell reachable-bucket masks, or nil
// when the planner runs under the baseline full-consumption rule. The
// slice is the consumption criterion to pass to Virgin.ConsumedInto
// when deriving the consumed bitset Replan plans from.
func (pp *Patchable) CellMasks() []uint8 { return pp.cellMask }

// Replan rewrites every probe site whose map cell is set in consumed to
// its fast variant, restores every other site to its pristine opcode,
// and threads every static jump target past the elided code. The plan
// is a pure function of the consumed mask: replanning from the same
// mask always yields the same patched code, which is what makes the
// plan deterministic across checkpoint resume and fleet restarts (the
// mask is derived from the checkpointed virgin map). With an empty mask
// the patched code is byte-identical to the pristine code. Returns the
// number of elided sites.
func (pp *Patchable) Replan(consumed *coverage.Bitset) int {
	for i := range pp.sites {
		pp.plan[i] = consumed.Has(pp.sites[i].cell)
	}
	pp.elided = pp.rebuild(pp.patched.code)
	return pp.elided
}

// rebuild materialises the current plan into code (which must alias or
// match the pristine length): pristine copy, site opcode flips, then
// the jump-threading pass. Replan and Verify share it, so the expected
// code Verify checks against is by construction the code Replan emits.
func (pp *Patchable) rebuild(code []instr) int {
	copy(code, pp.pristine.code)
	clear(pp.elidedJmp)
	n := 0
	for i := range pp.sites {
		if !pp.plan[i] {
			continue
		}
		s := &pp.sites[i]
		code[s.pc].op = s.fast
		if s.slow == opAddJmp {
			pp.elidedJmp[s.pc] = true
		}
		n++
	}
	// Jump threading: forward every static target past elided code. The
	// scan covers dead slots left behind by superinstruction fusion too
	// — the fused compare-and-branch heads read their targets from the
	// trailing dead opStepBr slot, so those slots must thread as well.
	for pc := range code {
		in := &code[pc]
		switch in.op {
		case opJmp, opStepJmp, opAddJmp, opIncJmp, opStepAddJmp, opStepIncJmp:
			in.a = pp.thread(code, in.a)
		case opBackJmp, opStepBackJmp:
			in.dst = pp.thread(code, in.dst)
		case opBr, opStepBr:
			in.b = pp.thread(code, in.b)
			in.dst = pp.thread(code, in.dst)
		}
	}
	return n
}

// thread forwards target t past effect-free elided code: opElide nops
// (fall through to the next slot) and elided trampoline jumps (follow
// the jump). Pristine opJmp instructions are NOT threaded over, so with
// an empty plan threading is the identity. Every cycle in compiled code
// charges steps through an un-elidable instruction, so the walk always
// terminates; the hop cap is defensive.
func (pp *Patchable) thread(code []instr, t int32) int32 {
	for hops := 0; hops < len(code); hops++ {
		if t < 0 || int(t) >= len(code) {
			return t
		}
		switch in := code[t]; {
		case in.op == opElide:
			t++
		case in.op == opJmp && pp.elidedJmp[t]:
			t = in.a
		default:
			return t
		}
	}
	return t
}

// Verify checks the self-patching invariant: the patched code is
// exactly what rebuilding the last Replan's plan from the pristine
// code produces — site opcodes flipped per the plan, jump targets
// threaded per the plan, everything else untouched. It is the
// patched-program analogue of the compile-time structural verifier
// (which only ever sees pristine code).
func (pp *Patchable) Verify() error {
	if len(pp.patched.code) != len(pp.pristine.code) {
		return fmt.Errorf("bytecode: patched code length %d != pristine %d", len(pp.patched.code), len(pp.pristine.code))
	}
	expect := make([]instr, len(pp.pristine.code))
	pp.rebuild(expect)
	j := 0
	for pc := range pp.patched.code {
		var site *patchSite
		if j < len(pp.sites) && pp.sites[j].pc == int32(pc) {
			site = &pp.sites[j]
			j++
		}
		got, want := pp.patched.code[pc], expect[pc]
		if got == want {
			continue
		}
		if got.op != want.op {
			if site == nil {
				return fmt.Errorf("bytecode: patched instruction at pc %d is not a probe site", pc)
			}
			return fmt.Errorf("bytecode: probe site at pc %d patched to opcode %d, want %d", pc, got.op, want.op)
		}
		return fmt.Errorf("bytecode: instruction at pc %d deviates from the patch plan's operands", pc)
	}
	return nil
}
