package bytecode

import (
	"errors"
	"fmt"
)

// DispatchStats is the dispatch histogram of one compiled program over
// a set of runs: how many instructions the dispatch loop fetched, how
// many steps the runs charged, and how often each opcode pair was
// fetched back to back within one lowered segment (a block, a
// trampoline or the entry probes), the pairs fusion can fold.
type DispatchStats struct {
	Dispatches int64
	Steps      int64
	// Pairs is keyed by opcode; OpName names them.
	Pairs map[[2]uint8]int64
}

// Dispatches weights p's code by counts from reference-interpreter
// runs that completed: runs is how many there were, enters[f] counts
// entries into function f (the runs' own entries into entry included)
// and edges[f][e] traversals of f's CFG edge e. Each block's group
// heads are weighted by the block's executions (entries into the entry
// block plus traversals of the edges into it) and each conditional
// branch's trampoline by its edge's traversals. Steps is what the same
// counts charge, one per instruction and one per block exit, for the
// caller to check against the runs' own step totals.
func Dispatches(p *Program, entry int, runs int64, enters []int64, edges [][]int64) (DispatchStats, error) {
	c := lower(p.src, p.spec)
	c.fuseAll()
	if len(c.out.code) != len(p.code) {
		return DispatchStats{}, errors.New("relowering changed the code length")
	}
	for i := range p.code {
		if c.out.code[i] != p.code[i] {
			return DispatchStats{}, fmt.Errorf("relowering changed pc %d", i)
		}
	}
	st := DispatchStats{Pairs: map[[2]uint8]int64{}}
	// walk weights the group heads of [start, end) by n and checks that
	// the groups tile the segment exactly.
	walk := func(start, end int32, n int64) error {
		pc, prev := start, int32(-1)
		for ; pc < end; pc += groupWidth(p.code[pc].op) {
			st.Dispatches += n
			if prev >= 0 && n > 0 {
				st.Pairs[[2]uint8{p.code[prev].op, p.code[pc].op}] += n
			}
			prev = pc
		}
		if pc != end {
			return fmt.Errorf("group at pc %d runs past its segment's end %d", pc, end)
		}
		return nil
	}
	for fi, f := range p.src.Funcs {
		lay := &c.layouts[fi]
		fn := &p.fns[fi]
		segEnd := func(start int32) int32 {
			end := lay.end
			for _, s := range lay.blockStart {
				if s > start && s < end {
					end = s
				}
			}
			for _, s := range lay.trampStart {
				if s > start && s < end {
					end = s
				}
			}
			return end
		}
		// Under path feedback every call to a function entering with a
		// push is an opCallPush, which skips the push: only a run's
		// own entry dispatches it.
		entries := enters[fi]
		if p.code[fn.entryPC].op == opProbePush {
			entries = 0
			if fi == entry {
				entries = runs
			}
		}
		if err := walk(fn.entryPC, lay.blockStart[0], entries); err != nil {
			return st, fmt.Errorf("%s entry: %w", f.Name, err)
		}
		tramps := map[int32]bool{}
		for _, s := range lay.trampStart {
			tramps[s] = true
		}
		for b := range f.Blocks {
			blk := &f.Blocks[b]
			n := int64(0)
			if b == f.Entry() {
				n = enters[fi]
			}
			for e, ed := range f.Edges {
				if ed.To == b {
					n += edges[fi][e]
				}
			}
			st.Steps += n * int64(len(blk.Instrs)+1)
			start := lay.blockStart[b]
			end := segEnd(start)
			if err := walk(start, end, n); err != nil {
				return st, fmt.Errorf("%s block b%d: %w", f.Name, b, err)
			}
			// The branch slot stays in place, dead or live, with its
			// targets: a probed side's target is its trampoline.
			if br := &p.code[end-1]; br.op == opBr {
				for _, side := range [2]struct {
					edge int
					pc   int32
				}{{blk.EdgeThen, br.b}, {blk.EdgeElse, br.dst}} {
					if tramps[side.pc] {
						if err := walk(side.pc, segEnd(side.pc), edges[fi][side.edge]); err != nil {
							return st, fmt.Errorf("%s trampoline @%d: %w", f.Name, side.pc, err)
						}
					}
				}
			}
		}
	}
	return st, nil
}

// OpName names an opcode for the dispatch histogram.
func OpName(op uint8) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

var opNames = [...]string{
	opConst: "const", opStr: "str", opMove: "move", opAdd: "add", opSub: "sub",
	opMul: "mul", opDiv: "div", opMod: "mod", opBand: "band", opBor: "bor",
	opBxor: "bxor", opShl: "shl", opShr: "shr", opEq: "eq", opNe: "ne",
	opLt: "lt", opLe: "le", opGt: "gt", opGe: "ge", opBadBin: "badbin",
	opNeg: "neg", opNot: "not", opCompl: "compl", opLoad: "load",
	opStore: "store", opCall: "call", opLen: "len", opAlloc: "alloc",
	opAssert: "assert", opAbort: "abort", opAbs: "abs", opMin: "min",
	opMax: "max", opOut: "out", opNop: "nop",
	opConstEq: "const+eq", opConstNe: "const+ne", opConstLt: "const+lt",
	opConstLe: "const+le", opConstGt: "const+gt", opConstGe: "const+ge",
	opConstAdd: "const+add", opConstSub: "const+sub", opConstLoad: "const+load",
	opEqStepBr: "eq+stepbr", opNeStepBr: "ne+stepbr", opLtStepBr: "lt+stepbr",
	opLeStepBr: "le+stepbr", opGtStepBr: "gt+stepbr", opGeStepBr: "ge+stepbr",
	opConstEqStepBr: "const+eq+stepbr", opConstNeStepBr: "const+ne+stepbr",
	opConstLtStepBr: "const+lt+stepbr", opConstLeStepBr: "const+le+stepbr",
	opConstGtStepBr: "const+gt+stepbr", opConstGeStepBr: "const+ge+stepbr",
	opConstMul: "const+mul", opConstMove: "const+move",
	opConstAddMove: "const+add+move", opConstSubMove: "const+sub+move",
	opConstMulMove: "const+mul+move", opConstLoadMove: "const+load+move",
	opAddMove: "add+move", opSubMove: "sub+move", opMulMove: "mul+move",
	opBandMove: "band+move", opBorMove: "bor+move", opBxorMove: "bxor+move",
	opShlMove: "shl+move", opShrMove: "shr+move", opLoadMove: "load+move",
	opLenMove: "len+move", opMulAdd: "mul+add", opLenCmpBr: "len+cmp+stepbr",
	opMulCmpBr: "mul+cmp+stepbr", opConstMulCmpBr: "const+mul+cmp+stepbr",
	opCallPush: "callpush", opStepChk: "stepchk", opJmp: "jmp", opBr: "br",
	opRet: "ret", opProbeAdd: "probe.add", opProbePush: "probe.push",
	opProbeInc: "probe.inc", opProbeBack: "probe.back",
	opProbeRetPath: "probe.retpath", opProbeBack2: "probe.back2",
	opProbeRetPath2: "probe.retpath2", opProbeHashEdge: "probe.hashedge",
	opProbePAEnter: "probe.paenter", opProbePAFlush: "probe.paflush",
	opStepBr: "stepbr", opStepJmp: "stepjmp", opStepRet: "stepret",
	opStepAddJmp: "stepchk+probe.add+jmp", opStepIncJmp: "stepchk+probe.inc+jmp",
	opStepBackJmp: "stepchk+probe.back+jmp", opStepRetPathRet: "stepchk+probe.retpath+ret",
	opStepFlushRet: "stepchk+probe.paflush", opAddJmp: "probe.add+jmp",
	opIncJmp: "probe.inc+jmp", opBackJmp: "probe.back+jmp", opElide: "elide",
}
