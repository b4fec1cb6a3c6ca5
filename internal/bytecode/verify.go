package bytecode

import (
	"fmt"
	"sort"
)

// The bytecode structural verifier checks the compiler's own output.
// It runs twice on every compile: once after lowering (full
// segment-shape check) and once after fusion (instruction groups, the
// slots superinstructions consumed, and jump targets, since fusion
// moves targets into superinstruction operand fields).
//
// Pre-fusion invariants, per function:
//
//   - the code between the entry pc and the first block is probes only
//     (the EnterFunc event);
//   - every block is [instructions, one opStepChk, probes, terminator]
//     in that order, with every instruction's slots inside the
//     function frame and every side-table index in range;
//   - every trampoline is probes followed by an opJmp;
//   - every jump target is a block start or a trampoline start of the
//     same function.

// isProbe reports whether op is an inlined feedback probe.
func isProbe(op uint8) bool { return op >= opProbeAdd && op <= opProbePAFlush }

// verify checks the pre-fusion structural invariants of every lowered
// function.
func (c *compiler) verify() error {
	if len(c.out.pos) != len(c.out.code) {
		return fmt.Errorf("bytecode verify: pos table has %d entries for %d instructions",
			len(c.out.pos), len(c.out.code))
	}
	for fi := range c.out.fns {
		if err := c.verifyFn(fi); err != nil {
			return err
		}
	}
	return nil
}

// fnErrf builds the per-function diagnostic formatter: every message
// names the function so a verifier hit is actionable on its own.
func (c *compiler) fnErrf(fi int) func(format string, args ...any) error {
	name := c.out.fns[fi].name
	return func(format string, args ...any) error {
		return fmt.Errorf("bytecode verify func %q (#%d): "+format,
			append([]any{name, fi}, args...)...)
	}
}

// fnTargets returns the set of pcs that intra-function jumps may
// reference: block starts and trampoline starts.
func (c *compiler) fnTargets(fi int) map[int32]bool {
	lay := &c.layouts[fi]
	targets := make(map[int32]bool, len(lay.blockStart)+len(lay.trampStart))
	for _, s := range lay.blockStart {
		targets[s] = true
	}
	for _, s := range lay.trampStart {
		targets[s] = true
	}
	return targets
}

func (c *compiler) verifyFn(fi int) error {
	out := c.out
	fn := &out.fns[fi]
	lay := &c.layouts[fi]
	frame := fn.frameSize
	errf := c.fnErrf(fi)
	targets := c.fnTargets(fi)

	// Segments tile [entryPC, end): entry probes, then blocks and
	// trampolines, each identified by its recorded start pc.
	type seg struct {
		start int32
		block int // -1 for a trampoline
	}
	var segs []seg
	for b, s := range lay.blockStart {
		segs = append(segs, seg{s, b})
	}
	for _, s := range lay.trampStart {
		segs = append(segs, seg{s, -1})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	if len(segs) == 0 {
		return errf("no lowered blocks")
	}

	// Entry probes.
	for pc := fn.entryPC; pc < segs[0].start; pc++ {
		if !isProbe(out.code[pc].op) {
			return errf("entry region: non-probe opcode %d at pc %d", out.code[pc].op, pc)
		}
		if err := c.checkProbe(errf, "entry region", pc); err != nil {
			return err
		}
	}

	for i, sg := range segs {
		end := lay.end
		if i+1 < len(segs) {
			end = segs[i+1].start
		}
		if sg.block < 0 {
			// Trampoline: probes, then an opJmp to a block start.
			if end-sg.start < 2 {
				return errf("trampoline @%d: only %d instructions", sg.start, end-sg.start)
			}
			where := fmt.Sprintf("trampoline @%d", sg.start)
			for pc := sg.start; pc < end-1; pc++ {
				if !isProbe(out.code[pc].op) {
					return errf("%s: non-probe opcode %d at pc %d", where, out.code[pc].op, pc)
				}
				if err := c.checkProbe(errf, where, pc); err != nil {
					return err
				}
			}
			if last := &out.code[end-1]; last.op != opJmp {
				return errf("%s: ends with opcode %d, not opJmp", where, last.op)
			} else if !targets[last.a] {
				return errf("%s: jmp target pc %d is not a block or trampoline start", where, last.a)
			}
			continue
		}

		b := sg.block
		seenChk := false
		for pc := sg.start; pc < end; pc++ {
			in := &out.code[pc]
			if pc == end-1 {
				if !seenChk {
					return errf("block b%d: no opStepChk before the terminator", b)
				}
				switch in.op {
				case opJmp:
					if !targets[in.a] {
						return errf("block b%d: jmp target pc %d is not a block or trampoline start", b, in.a)
					}
				case opBr:
					if in.a < 0 || in.a >= frame {
						return errf("block b%d: br condition slot s%d outside frame of %d", b, in.a, frame)
					}
					if !targets[in.b] {
						return errf("block b%d: br then-target pc %d is not a block or trampoline start", b, in.b)
					}
					if !targets[in.dst] {
						return errf("block b%d: br else-target pc %d is not a block or trampoline start", b, in.dst)
					}
				case opRet:
					if in.a >= frame {
						return errf("block b%d: ret slot s%d outside frame of %d", b, in.a, frame)
					}
				default:
					return errf("block b%d: ends with opcode %d, not a terminator", b, in.op)
				}
				continue
			}
			switch {
			case in.op == opStepChk:
				if seenChk {
					return errf("block b%d: more than one opStepChk", b)
				}
				seenChk = true
			case in.op < opStepChk:
				if seenChk {
					return errf("block b%d: instruction opcode %d after opStepChk", b, in.op)
				}
				if err := c.checkBody(errf, b, in, frame); err != nil {
					return err
				}
			case isProbe(in.op):
				if !seenChk {
					return errf("block b%d: probe opcode %d before opStepChk", b, in.op)
				}
				if err := c.checkProbe(errf, fmt.Sprintf("block b%d", b), pc); err != nil {
					return err
				}
			default:
				return errf("block b%d: unexpected opcode %d at pc %d", b, in.op, pc)
			}
		}
	}
	return nil
}

// checkBody validates one pre-fusion block-body instruction: slots in
// frame, side-table indices in range. Fused opcodes are rejected — they
// only exist after fusion.
func (c *compiler) checkBody(errf func(string, ...any) error, b int, in *instr, frame int32) error {
	slot := func(role string, s int32) error {
		if s < 0 || s >= frame {
			return errf("block b%d: %s slot s%d outside frame of %d", b, role, s, frame)
		}
		return nil
	}
	slots := func(pairs ...int32) error {
		roles := [3]string{"dst", "a", "b"}
		for i, s := range pairs {
			if err := slot(roles[i], s); err != nil {
				return err
			}
		}
		return nil
	}
	switch in.op {
	case opConst:
		return slot("dst", in.dst)
	case opStr:
		if in.imm < 0 || in.imm >= int64(len(c.out.strCells)) {
			return errf("block b%d: string literal index %d outside table of %d", b, in.imm, len(c.out.strCells))
		}
		return slot("dst", in.dst)
	case opMove, opNeg, opNot, opCompl, opLen, opAlloc, opAssert, opAbs, opOut:
		return slots(in.dst, in.a)
	case opAdd, opSub, opMul, opDiv, opMod, opBand, opBor, opBxor, opShl, opShr,
		opEq, opNe, opLt, opLe, opGt, opGe, opBadBin, opLoad, opStore, opMin, opMax:
		return slots(in.dst, in.a, in.b)
	case opCall:
		if in.imm < 0 || in.imm >= int64(len(c.out.fns)) {
			return errf("block b%d: call to function index %d outside table of %d", b, in.imm, len(c.out.fns))
		}
		if in.a < 0 || in.b < 0 || int(in.a)+int(in.b) > len(c.out.argSlots) {
			return errf("block b%d: call argument window [%d,%d) outside pool of %d", b, in.a, in.a+in.b, len(c.out.argSlots))
		}
		for _, s := range c.out.argSlots[in.a : in.a+in.b] {
			if s < 0 || s >= frame {
				return errf("block b%d: call argument slot s%d outside frame of %d", b, s, frame)
			}
		}
		return slot("dst", in.dst)
	case opAbort, opNop:
		return nil
	}
	return errf("block b%d: unexpected opcode %d in block body", b, in.op)
}

// checkProbe validates one probe's side-table reference.
func (c *compiler) checkProbe(errf func(string, ...any) error, where string, pc int32) error {
	in := &c.out.code[pc]
	if in.op == opProbeBack || in.op == opProbeBack2 {
		if in.b < 0 || in.b >= int32(len(c.out.backVals)) {
			return errf("%s: opProbeBack restart index %d outside table of %d", where, in.b, len(c.out.backVals))
		}
	}
	return nil
}

// verifyFused re-checks the code after fusion: the instruction groups
// and the consumed slots their handlers read, and jump targets, which
// superinstructions carry in their own operand fields while the
// consumed dead slots keep theirs, so a linear scan covers both. It
// also validates the opCallPush fold.
func (c *compiler) verifyFused() error {
	out := c.out
	for fi := range out.fns {
		fn := &out.fns[fi]
		lay := &c.layouts[fi]
		errf := c.fnErrf(fi)
		targets := c.fnTargets(fi)
		// Groups tile the function, every jump target heads one (no
		// superinstruction swallows a block or trampoline start), and
		// the consumed slots a handler runs from are in place; a fused
		// compare-and-branch's targets stay in its dead opStepBr, which
		// the scan below checks.
		heads := make(map[int32]bool)
		pc := fn.entryPC
		for ; pc < lay.end; pc += groupWidth(out.code[pc].op) {
			heads[pc] = true
			if pc+groupWidth(out.code[pc].op) <= lay.end && !fusedTailOK(out.code, pc) {
				return errf("fused group at pc %d (opcode %d) lacks the slots it consumed", pc, out.code[pc].op)
			}
		}
		if pc != lay.end {
			return errf("fused group at the function's end runs past it to pc %d", pc)
		}
		for t := range targets {
			if !heads[t] {
				return errf("jump target pc %d lies inside a fused group", t)
			}
		}
		end := int(lay.end)
		for pc := int(fn.entryPC); pc < end; pc++ {
			in := &out.code[pc]
			var tgts []int32
			switch {
			case in.op == opJmp || in.op == opStepJmp || in.op == opStepAddJmp ||
				in.op == opStepIncJmp || in.op == opAddJmp || in.op == opIncJmp:
				tgts = []int32{in.a}
			case in.op == opBr || in.op == opStepBr:
				tgts = []int32{in.b, in.dst}
			case in.op == opStepBackJmp || in.op == opBackJmp:
				tgts = []int32{in.dst}
			case in.op == opCall || in.op == opCallPush:
				if in.imm < 0 || in.imm >= int64(len(out.fns)) {
					return errf("pc %d: call to function index %d outside table of %d", pc, in.imm, len(out.fns))
				}
				if in.op == opCallPush && out.code[out.fns[in.imm].entryPC].op != opProbePush {
					return errf("pc %d: opCallPush callee %q does not start with opProbePush", pc, out.fns[in.imm].name)
				}
			}
			for _, t := range tgts {
				if !targets[t] {
					return errf("pc %d (opcode %d): jump target %d is not a block or trampoline start", pc, in.op, t)
				}
			}
		}
	}
	return nil
}
