package bytecode

import (
	"repro/internal/cfg"
	"repro/internal/lang"
)

// Compile lowers prog once into flat bytecode with spec's probes
// inlined. The returned program is immutable; compile it once per
// (program, feedback) pair and share it across machines.
//
// Layout per function: entry probes (the EnterFunc event), then each
// basic block as [lowered instructions, opStepChk, terminator]. Edge
// probes for unconditional jumps are inlined before the opJmp; for
// conditional branches each probed edge gets a small trampoline
// (probes + opJmp) so the branch pays nothing for the untaken side,
// and edges with no probes are branched to directly.
//
// Compile panics when the structural verifier rejects the lowered
// code; that only happens when the lowering or fusion is broken, so
// callers that want the error instead use CompileChecked.
func Compile(prog *cfg.Program, spec Spec) *Program {
	p, err := CompileChecked(prog, spec)
	if err != nil {
		panic(err)
	}
	return p
}

// CompileChecked is Compile returning verification failures as errors.
// Every compile runs the bytecode structural verifier twice: after
// lowering and again after fusion.
func CompileChecked(prog *cfg.Program, spec Spec) (*Program, error) {
	c := lower(prog, spec)
	if err := c.verify(); err != nil {
		return nil, err
	}
	c.fuseAll()
	if err := c.verifyFused(); err != nil {
		return nil, err
	}
	return c.out, nil
}

type compiler struct {
	out *Program
	// layouts records, per function, where its blocks and trampolines
	// landed — the bytecode verifier's ground truth for jump targets.
	layouts []fnLayout
}

// fnLayout is the code-layout record of one lowered function.
type fnLayout struct {
	// blockStart is the pc of each basic block.
	blockStart []int32
	// trampStart lists the pcs of the conditional-branch probe
	// trampolines emitted after the function body.
	trampStart []int32
	// end is one past the function's last instruction.
	end int32
}

// lower lowers every function of prog, unfused and unverified.
func lower(prog *cfg.Program, spec Spec) *compiler {
	c := &compiler{
		out:     &Program{src: prog, spec: spec, fns: make([]fnInfo, len(prog.Funcs))},
		layouts: make([]fnLayout, len(prog.Funcs)),
	}
	for fi, f := range prog.Funcs {
		c.fn(fi, f, c.fnSpec(fi))
	}
	return c
}

// fuseAll fuses every lowered function, then, with every entry point
// final, folds ProbePath's entry push into the calls themselves (the
// entry function still executes its own push when the machine enters
// it directly).
func (c *compiler) fuseAll() {
	for fi := range c.out.fns {
		c.fuse(int(c.out.fns[fi].entryPC), int(c.layouts[fi].end))
	}
	if c.out.spec.Kind == ProbePath {
		code := c.out.code
		for i := range code {
			if code[i].op == opCall && code[c.out.fns[code[i].imm].entryPC].op == opProbePush {
				code[i].op = opCallPush
			}
		}
	}
}

func (c *compiler) fnSpec(fi int) FnSpec {
	if fi < len(c.out.spec.Fns) {
		return c.out.spec.Fns[fi]
	}
	return FnSpec{}
}

// jmpFix is a pending unconditional-jump target (code[pc].a = start of
// block).
type jmpFix struct {
	pc    int
	block int
}

// brPend is a pending conditional branch: both sides resolve to either
// a block start or a freshly emitted probe trampoline.
type brPend struct {
	pc                   int
	thenBlock, elseBlock int
	thenEdge, elseEdge   int
}

func (c *compiler) fn(fi int, f *cfg.Func, fs FnSpec) {
	out := c.out
	out.fns[fi] = fnInfo{
		name:      f.Name,
		entryPC:   int32(len(out.code)),
		frameSize: int32(f.FrameSize),
		nparams:   int32(f.NParams),
		pos:       f.Pos,
	}
	c.emitEnterProbes(fs)

	blockStart := make([]int32, len(f.Blocks))
	var jmps []jmpFix
	var brs []brPend
	for b := range f.Blocks {
		blk := &f.Blocks[b]
		blockStart[b] = int32(len(out.code))
		for i := range blk.Instrs {
			c.instr(&blk.Instrs[i])
		}
		c.emit(instr{op: opStepChk}, blk.Term.Pos)
		switch blk.Term.Kind {
		case cfg.TermJmp:
			c.emitEdgeProbes(f, fs, blk.EdgeThen, blk.Term.Pos)
			jmps = append(jmps, jmpFix{pc: len(out.code), block: blk.Term.Then})
			c.emit(instr{op: opJmp}, blk.Term.Pos)
		case cfg.TermBr:
			brs = append(brs, brPend{
				pc:        len(out.code),
				thenBlock: blk.Term.Then, elseBlock: blk.Term.Else,
				thenEdge: blk.EdgeThen, elseEdge: blk.EdgeElse,
			})
			c.emit(instr{op: opBr, a: int32(blk.Term.Cond)}, blk.Term.Pos)
		case cfg.TermRet:
			c.emitRetProbes(fs, b, blk.Term.Pos)
			c.emit(instr{op: opRet, a: int32(blk.Term.Val)}, blk.Term.Pos)
		}
	}

	// Conditional-branch targets: trampolines are appended after the
	// function body, so block starts are final by now.
	var tramps []int32
	for _, br := range brs {
		thenPC := c.edgeTarget(f, fs, br.thenEdge, startOf(blockStart, br.thenBlock), &tramps)
		elsePC := c.edgeTarget(f, fs, br.elseEdge, startOf(blockStart, br.elseBlock), &tramps)
		out.code[br.pc].b = thenPC
		out.code[br.pc].dst = elsePC
	}
	for _, j := range jmps {
		out.code[j.pc].a = startOf(blockStart, j.block)
	}
	c.layouts[fi] = fnLayout{
		blockStart: blockStart,
		trampStart: tramps,
		end:        int32(len(out.code)),
	}
}

// startOf is the pc of block b, or -1 when b names no block of the
// function: the verifier then rejects the jump with a diagnostic
// naming the function and block, where indexing would panic.
func startOf(blockStart []int32, b int) int32 {
	if b < 0 || b >= len(blockStart) {
		return -1
	}
	return blockStart[b]
}

// fuse rewrites the function's code (body and trampolines, which all
// fixups have already resolved) with superinstructions. A fused head
// takes the consumed slots' operands; the consumed slots stay in place
// as dead code so jump targets and the per-pc pos table never move.
// Jumps only ever target block starts and trampoline starts — a block
// start is its block's first instruction (never a terminator, probe,
// or a const feeding a consumer in the same block) and a trampoline
// start is a probe, so every head below is either not a target or the
// first slot of its pattern.
func (c *compiler) fuse(start, end int) {
	code := c.out.code
	for k := start; k < end-1; k++ {
		in, next := &code[k], &code[k+1]
		switch in.op {
		case opStepChk:
			switch next.op {
			case opBr:
				*in = instr{op: opStepBr, dst: next.dst, a: next.a, b: next.b}
				k++
			case opJmp:
				*in = instr{op: opStepJmp, a: next.a}
				k++
			case opRet:
				*in = instr{op: opStepRet, a: next.a}
				k++
			case opProbeAdd:
				if k+2 < end && code[k+2].op == opJmp {
					*in = instr{op: opStepAddJmp, imm: next.imm, a: code[k+2].a}
					k += 2
				}
			case opProbeInc:
				if k+2 < end && code[k+2].op == opJmp {
					*in = instr{op: opStepIncJmp, imm: next.imm, a: code[k+2].a}
					k += 2
				}
			case opProbeBack:
				if k+2 < end && code[k+2].op == opJmp {
					*in = instr{op: opStepBackJmp, a: next.a, b: next.b, imm: next.imm, dst: code[k+2].a}
					k += 2
				}
			case opProbeRetPath:
				if k+2 < end && code[k+2].op == opRet {
					*in = instr{op: opStepRetPathRet, a: next.a, imm: next.imm, b: code[k+2].a}
					k += 2
				}
			case opProbePAFlush:
				if k+2 < end && code[k+2].op == opRet {
					*in = instr{op: opStepFlushRet, a: code[k+2].a}
					k += 2
				}
			}
		case opProbeAdd:
			if next.op == opJmp {
				*in = instr{op: opAddJmp, imm: in.imm, a: next.a}
				k++
			}
		case opProbeInc:
			if next.op == opJmp {
				*in = instr{op: opIncJmp, imm: in.imm, a: next.a}
				k++
			}
		case opProbeBack:
			if next.op == opJmp {
				*in = instr{op: opBackJmp, a: in.a, b: in.b, imm: in.imm, dst: next.a}
				k++
			}
		}
	}
	// Second sweep, after block exits are fused: comparisons (and the
	// constants feeding them) folded into the opStepBr that branches
	// on their result, plus the remaining const-feeds-consumer pairs.
	for k := start; k < end-1; k++ {
		in, next := &code[k], &code[k+1]
		switch in.op {
		case opEq, opNe, opLt, opLe, opGt, opGe:
			if next.op == opStepBr && next.a == in.dst {
				in.op = opEqStepBr + (in.op - opEq)
				k++
			}
		case opConst:
			t := in.dst
			var fop uint8
			skip := 1
			switch next.op {
			case opEq, opNe, opLt, opLe, opGt, opGe:
				if next.b == t && next.a != t {
					fop = opConstEq + (next.op - opEq)
					if k+2 < end && code[k+2].op == opStepBr && code[k+2].a == next.dst {
						fop = opConstEqStepBr + (next.op - opEq)
						skip = 2
					}
				}
			case opAdd:
				if next.b == t && next.a != t {
					fop, in.a = opConstAdd, next.a
				} else if next.a == t && next.b != t {
					fop, in.a = opConstAdd, next.b
				}
			case opSub:
				if next.b == t && next.a != t {
					fop, in.a = opConstSub, next.a
				}
			case opLoad:
				if next.b == t && next.a != t {
					fop = opConstLoad
				}
			}
			if fop != 0 {
				in.op = fop
				k += skip
			}
		}
	}
}

func (c *compiler) emit(in instr, pos lang.Pos) {
	c.out.code = append(c.out.code, in)
	c.out.pos = append(c.out.pos, pos)
}

// emitEdgeProbes inlines edge e's probes at the current position (used
// for unconditional jumps, where there is no untaken side to protect).
func (c *compiler) emitEdgeProbes(f *cfg.Func, fs FnSpec, e int, pos lang.Pos) {
	for _, p := range c.edgeProbes(f, fs, e) {
		c.emit(p, pos)
	}
}

// edgeTarget resolves one conditional-branch side: straight to the
// block when the edge carries no probes, else through a trampoline
// whose start is recorded in tramps for the bytecode verifier.
func (c *compiler) edgeTarget(f *cfg.Func, fs FnSpec, e int, blockPC int32, tramps *[]int32) int32 {
	probes := c.edgeProbes(f, fs, e)
	if len(probes) == 0 {
		return blockPC
	}
	start := int32(len(c.out.code))
	pos := lang.Pos{}
	for _, p := range probes {
		c.emit(p, pos)
	}
	c.emit(instr{op: opJmp, a: blockPC}, pos)
	*tramps = append(*tramps, start)
	return start
}

// emitEnterProbes lowers the EnterFunc tracer event.
func (c *compiler) emitEnterProbes(fs FnSpec) {
	switch c.out.spec.Kind {
	case ProbePath:
		if !fs.Edge {
			c.emit(instr{op: opProbePush}, lang.Pos{})
		}
	case ProbePathAFL:
		if fs.Tracked {
			c.emit(instr{op: opProbePAEnter, imm: int64(fs.Salt)}, lang.Pos{})
		}
	}
}

// edgeProbes lowers the Edge tracer event for edge e of f.
func (c *compiler) edgeProbes(f *cfg.Func, fs FnSpec, e int) []instr {
	switch c.out.spec.Kind {
	case ProbeEdge, ProbePathAFL:
		return []instr{{op: opProbeAdd, imm: int64(fs.Base + uint32(e))}}
	case ProbePath:
		if fs.Edge {
			return []instr{{op: opProbeAdd, imm: int64(fs.Base + uint32(e))}}
		}
		if fs.HashMode {
			if f.BackEdge[e] {
				return []instr{{op: opProbeBack, a: int32(fs.Salt), b: c.backVal(0)}}
			}
			return []instr{{op: opProbeHashEdge, imm: int64(e + 1)}}
		}
		if act, ok := fs.Back[e]; ok {
			return []instr{{op: opProbeBack, a: int32(fs.Salt), imm: act.EndInc, b: c.backVal(act.StartVal)}}
		}
		if inc := fs.EdgeInc[e]; inc != 0 {
			// Spanning-tree placement pays off here: tree edges carry a
			// zero increment and compile to no probe at all.
			return []instr{{op: opProbeInc, imm: inc}}
		}
		return nil
	}
	return nil
}

// backVal interns one opProbeBack restart value and returns its index
// in the program's side table.
func (c *compiler) backVal(v int64) int32 {
	idx := int32(len(c.out.backVals))
	c.out.backVals = append(c.out.backVals, v)
	return idx
}

// emitRetProbes lowers the Ret tracer event for block b.
func (c *compiler) emitRetProbes(fs FnSpec, b int, pos lang.Pos) {
	switch c.out.spec.Kind {
	case ProbePath:
		if fs.Edge {
			return
		}
		var inc int64
		if !fs.HashMode {
			inc = fs.RetInc[b]
		}
		c.emit(instr{op: opProbeRetPath, a: int32(fs.Salt), imm: inc}, pos)
	case ProbePathAFL:
		if fs.Tracked {
			c.emit(instr{op: opProbePAFlush}, pos)
		}
	}
}

// instr lowers one cfg instruction to a specialised opcode.
func (c *compiler) instr(in *cfg.Instr) {
	switch in.Op {
	case cfg.OpConst:
		c.emit(instr{op: opConst, dst: int32(in.Dst), imm: in.Imm}, in.Pos)
	case cfg.OpStr:
		cells := make([]int64, len(in.Str))
		for i := 0; i < len(in.Str); i++ {
			cells[i] = int64(in.Str[i])
		}
		idx := len(c.out.strCells)
		c.out.strCells = append(c.out.strCells, cells)
		c.emit(instr{op: opStr, dst: int32(in.Dst), imm: int64(idx)}, in.Pos)
	case cfg.OpMove:
		c.emit(instr{op: opMove, dst: int32(in.Dst), a: int32(in.A)}, in.Pos)
	case cfg.OpBin:
		op := binOpcode(in.Sub)
		c.emit(instr{op: op, dst: int32(in.Dst), a: int32(in.A), b: int32(in.B), imm: int64(in.Sub)}, in.Pos)
	case cfg.OpUn:
		var op uint8
		switch in.Sub {
		case lang.MINUS:
			op = opNeg
		case lang.NOT:
			op = opNot
		case lang.TILDE:
			op = opCompl
		default:
			// The interpreter leaves the destination untouched for an
			// unknown unary operator but still charges the step.
			op = opNop
		}
		c.emit(instr{op: op, dst: int32(in.Dst), a: int32(in.A)}, in.Pos)
	case cfg.OpLoad:
		c.emit(instr{op: opLoad, dst: int32(in.Dst), a: int32(in.A), b: int32(in.B)}, in.Pos)
	case cfg.OpStore:
		c.emit(instr{op: opStore, dst: int32(in.C), a: int32(in.A), b: int32(in.B)}, in.Pos)
	case cfg.OpCall:
		off := len(c.out.argSlots)
		for _, s := range in.Args {
			c.out.argSlots = append(c.out.argSlots, int32(s))
		}
		c.emit(instr{op: opCall, dst: int32(in.Dst), a: int32(off), b: int32(len(in.Args)), imm: int64(in.Callee)}, in.Pos)
	case cfg.OpBuiltin:
		c.builtin(in)
	default:
		// Unknown opcodes are counted no-ops, exactly as the
		// interpreter's instruction switch treats them.
		c.emit(instr{op: opNop}, in.Pos)
	}
}

func binOpcode(k lang.Kind) uint8 {
	switch k {
	case lang.PLUS:
		return opAdd
	case lang.MINUS:
		return opSub
	case lang.STAR:
		return opMul
	case lang.SLASH:
		return opDiv
	case lang.PCT:
		return opMod
	case lang.AMP:
		return opBand
	case lang.PIPE:
		return opBor
	case lang.CARET:
		return opBxor
	case lang.SHL:
		return opShl
	case lang.SHR:
		return opShr
	case lang.EQ:
		return opEq
	case lang.NE:
		return opNe
	case lang.LT:
		return opLt
	case lang.LE:
		return opLe
	case lang.GT:
		return opGt
	case lang.GE:
		return opGe
	}
	return opBadBin
}

func (c *compiler) builtin(in *cfg.Instr) {
	// arg mirrors the interpreter's unchecked Args indexing: a builtin
	// somehow lowered with missing arguments fails at runtime if (and
	// only if) it executes, never at compile time. The front end's
	// arity checking makes this unreachable in practice.
	arg := func(i int) int32 {
		if i < len(in.Args) {
			return int32(in.Args[i])
		}
		return -1
	}
	base := instr{dst: int32(in.Dst)}
	switch in.Callee {
	case cfg.BLen:
		base.op, base.a = opLen, arg(0)
	case cfg.BAlloc:
		base.op, base.a = opAlloc, arg(0)
	case cfg.BAssert:
		base.op, base.a = opAssert, arg(0)
	case cfg.BAbort:
		base.op = opAbort
	case cfg.BAbs:
		base.op, base.a = opAbs, arg(0)
	case cfg.BMin:
		base.op, base.a, base.b = opMin, arg(0), arg(1)
	case cfg.BMax:
		base.op, base.a, base.b = opMax, arg(0), arg(1)
	case cfg.BOut:
		base.op, base.a = opOut, arg(0)
	default:
		// Unknown builtins are silent, counted no-ops in the
		// interpreter.
		base = instr{op: opNop}
	}
	c.emit(base, in.Pos)
}
