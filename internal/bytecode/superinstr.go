package bytecode

// This file holds the fusion sweep for the operand superinstructions
// and the group widths that fusion, the verifier and the dispatch
// histogram walk code by. It sorts after machine.go on purpose: the
// linker lays out a package's functions in file order, and the
// dispatch loop, Machine.exec, runs measurably slower when its start
// moves off a 64-byte boundary. Lowering code added here lands after
// exec and leaves its start where it was.

// groupWidth returns how many code slots the instruction group headed
// by op covers: 1 for a plain instruction, more for a superinstruction,
// whose consumed slots follow it dead. Walking a lowered segment (the
// entry probes, a block or a trampoline) by group widths visits exactly
// the slots the dispatch loop fetches. opStepFlushRet covers its
// opStepChk and flush; the opRet after it is dispatched on its own.
func groupWidth(op uint8) int32 {
	switch op {
	case opConstEq, opConstNe, opConstLt, opConstLe, opConstGt, opConstGe,
		opConstAdd, opConstSub, opConstLoad, opConstMul,
		opConstMove, opAddMove, opSubMove, opMulMove, opBandMove, opBorMove,
		opBxorMove, opShlMove, opShrMove, opLoadMove, opLenMove, opMulAdd,
		opStepBr, opStepJmp, opStepRet, opStepFlushRet,
		opAddJmp, opIncJmp, opBackJmp:
		return 2
	case opEqStepBr, opNeStepBr, opLtStepBr, opLeStepBr, opGtStepBr, opGeStepBr,
		opConstAddMove, opConstSubMove, opConstMulMove, opConstLoadMove,
		opStepAddJmp, opStepIncJmp, opStepBackJmp, opStepRetPathRet:
		return 3
	case opConstEqStepBr, opConstNeStepBr, opConstLtStepBr, opConstLeStepBr, opConstGtStepBr, opConstGeStepBr,
		opLenCmpBr, opMulCmpBr:
		return 4
	case opConstMulCmpBr:
		return 5
	}
	return 1
}

// fuseOperands is fusion's last sweep, after block exits, compares and
// constants are folded: it folds a constant into the multiply that
// reads it, then a head group into the opMove of its result, a product
// into the add that reads it, or a length or product (a const+mul's
// included) into the compare-and-branch that reads it. It steps from
// group head to group head, so no pattern starts in a consumed slot,
// and every pattern lies inside one block: a block's body ends in its
// exit group.
func (c *compiler) fuseOperands(start, end int32) {
	code := c.out.code
	for k := start; k < end; k += groupWidth(code[k].op) {
		in := &code[k]
		if in.op == opConst && k+1 < end && code[k+1].op == opMul {
			if t, mul := in.dst, &code[k+1]; mul.b == t && mul.a != t {
				in.op, in.a = opConstMul, mul.a
			} else if mul.a == t && mul.b != t {
				in.op, in.a = opConstMul, mul.b
			}
		}
		w := groupWidth(in.op)
		if k+w >= end {
			continue
		}
		next := &code[k+w]
		// The group's result is its last slot's destination.
		res := code[k+w-1].dst
		switch {
		case next.op == opMove && next.a == res:
			if op := moveFused(in.op); op != 0 {
				in.op = op
			}
		case next.op == opAdd && in.op == opMul && (next.a == res || next.b == res):
			in.op = opMulAdd
		case next.op >= opEqStepBr && next.op <= opGeStepBr && (next.a == res || next.b == res):
			switch in.op {
			case opLen:
				in.op = opLenCmpBr
			case opMul:
				in.op = opMulCmpBr
			case opConstMul:
				in.op = opConstMulCmpBr
			default:
				continue
			}
			// The slot before the compare carries the truth table:
			// neither len nor mul reads its imm.
			code[k+w-1].imm = cmpTable(next.op)
		}
	}
}

// moveFused returns the superinstruction that folds head op into the
// opMove of its result, or 0 when there is none.
func moveFused(op uint8) uint8 {
	switch op {
	case opConst:
		return opConstMove
	case opConstAdd:
		return opConstAddMove
	case opConstSub:
		return opConstSubMove
	case opConstMul:
		return opConstMulMove
	case opConstLoad:
		return opConstLoadMove
	case opAdd:
		return opAddMove
	case opSub:
		return opSubMove
	case opMul:
		return opMulMove
	case opBand:
		return opBandMove
	case opBor:
		return opBorMove
	case opBxor:
		return opBxorMove
	case opShl:
		return opShlMove
	case opShr:
		return opShrMove
	case opLoad:
		return opLoadMove
	case opLen:
		return opLenMove
	}
	return 0
}

// cmpTable is the truth table of a fused compare-and-branch opcode,
// indexed by cmpBit: bit 0 holds a > b, bit 1 a == b, bit 2 a < b.
func cmpTable(op uint8) int64 {
	return [...]int64{
		opEqStepBr - opEqStepBr: 0b010,
		opNeStepBr - opEqStepBr: 0b101,
		opLtStepBr - opEqStepBr: 0b100,
		opLeStepBr - opEqStepBr: 0b110,
		opGtStepBr - opEqStepBr: 0b001,
		opGeStepBr - opEqStepBr: 0b011,
	}[op-opEqStepBr]
}

// cmpBit orders a against b for a cmpTable lookup: 0 when a > b, 1
// when they are equal, 2 when a < b.
func cmpBit(a, b int64) uint64 {
	var i uint64
	if a == b {
		i = 1
	}
	if a < b {
		i = 2
	}
	return i
}

// fusedTailOK reports whether the slots the group at k consumed still
// hold what its handler runs from: the dead opStepBr a fused
// compare-and-branch exits through, the opMove of the group's result,
// the add reading the product, or the compare-and-branch reading the
// length or product, with its truth table in the slot before it. Other
// groups copied what they need at fuse time.
func fusedTailOK(code []instr, k int32) bool {
	in := &code[k]
	last := k + groupWidth(in.op) - 1
	switch in.op {
	case opEqStepBr, opNeStepBr, opLtStepBr, opLeStepBr, opGtStepBr, opGeStepBr,
		opConstEqStepBr, opConstNeStepBr, opConstLtStepBr, opConstLeStepBr, opConstGtStepBr, opConstGeStepBr:
		return code[last-1].op == opStepBr
	case opConstMove, opConstAddMove, opConstSubMove, opConstMulMove, opConstLoadMove,
		opAddMove, opSubMove, opMulMove, opBandMove, opBorMove, opBxorMove,
		opShlMove, opShrMove, opLoadMove, opLenMove:
		return code[last].op == opMove && code[last].a == code[last-1].dst
	case opMulAdd:
		return code[k+1].op == opAdd && (code[k+1].a == in.dst || code[k+1].b == in.dst)
	case opLenCmpBr, opMulCmpBr, opConstMulCmpBr:
		pre, cmp := &code[last-3], &code[last-2]
		return cmp.op >= opEqStepBr && cmp.op <= opGeStepBr && code[last-1].op == opStepBr &&
			(in.op != opConstMulCmpBr || pre.op == opMul) &&
			(cmp.a == pre.dst || cmp.b == pre.dst) && pre.imm == cmpTable(cmp.op)
	}
	return true
}
