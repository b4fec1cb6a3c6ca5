package bytecode

import (
	"math"

	"repro/internal/coverage"
	"repro/internal/lang"
	"repro/internal/vm"
)

// mframe is one pooled call frame: the executing function, the window
// [base, base+size) of the shared slot stack its slots occupy, and
// where to resume in the caller. The caller's window is the frame
// below, so a return re-derives it without touching the function
// table. The call-site position for crash stacks is not stored — it is
// recovered cold as Program.pos[retPC-1].
type mframe struct {
	fn    int32
	base  int32
	size  int32
	retPC int32
	dst   int32
}

// harray is one heap array: its cells, carved from the arena, and hi,
// one past the highest index the current run wrote. Cells at hi and
// beyond are still zero.
type harray struct {
	cells []int64
	hi    int
}

// Machine executes a compiled Program. All execution state — slot
// stack, call frames, heap arrays, comparison and output buffers —
// is pooled and reset between runs, so a warmed-up machine performs
// zero allocations per execution. Every arena cell is zero when a run
// starts, so an allocation costs O(1), not its size: arrays record how
// far the run wrote them, and the next run's reset clears only that.
// A machine is single-threaded; share the Program, not the Machine.
//
// Results reference the machine's pooled buffers: Result.Output and
// Result.Cmps are valid only until the next Run. Callers that keep
// them across executions must copy.
type Machine struct {
	p   *Program
	m   *coverage.Map
	lim vm.Limits
	// stop is the step count at which a block exit leaves the run: one
	// past the budget, or the injected fault's step if that is earlier.
	stop int64
	// pc and steps carry the dispatch loop's registers through slowOp.
	pc    int32
	steps int64

	// slots is the shared slot stack; frames carve [base, base+size).
	slots  []int64
	frames []mframe
	// heap maps handles (1-based) to arrays; the arrays themselves are
	// carved from arena, which is bump-allocated and reset per run.
	// heap[block:] are the arrays carved from the current arena block;
	// the earlier ones live in blocks left behind when the arena grew.
	heap   []harray
	block  int
	arena  []int64
	arenaN int
	cells  int64
	output []int64
	// cmps is the comparison log; its capacity never exceeds
	// MaxCmpObs, so a comparison is logged iff the log has room.
	cmps []vm.CmpObs
	// regs is the Ball-Larus path register stack (ProbePath).
	regs []uint64
	// last[i+1] is the mixed ID of the previous path recorded by the
	// activation owning regs[i], or its caller's at entry (Spec.Path2
	// only). last[0] is a zero sentinel, the entry function's "caller";
	// 0 means no path yet. Pops leave last alone: the next push
	// truncates it to the live stack.
	last []uint32
	// pah/pan are the PathAFL rolling segment hash and length.
	pah uint64
	pan int
	// elide, when non-nil, is the consumed-cell mask of the
	// coverage-guided tracing engine: dynamic-index probes (path record,
	// pathafl segment flush) skip the map write when their cell is fully
	// consumed, the record-side analogue of the static opProbeAdd
	// patching. Everything else about the probe — path register
	// updates, segment hash state — still runs, so execution state
	// stays identical to the pristine machine.
	elide *coverage.Bitset
}

// NewMachine builds an execution machine over p, writing coverage to m
// under the given limits.
func NewMachine(p *Program, m *coverage.Map, lim vm.Limits) *Machine {
	mc := &Machine{p: p, m: m, lim: lim, stop: math.MaxInt64}
	if lim.InjectPanicAtStep > 0 {
		mc.stop = lim.InjectPanicAtStep
	}
	if lim.MaxSteps < mc.stop {
		mc.stop = lim.MaxSteps + 1
	}
	if p.spec.Path2 {
		mc.last = make([]uint32, 1, 64)
	}
	return mc
}

// Program returns the compiled program the machine executes.
func (mc *Machine) Program() *Program { return mc.p }

// SetElide installs (or removes, with nil) the consumed-cell mask
// consulted by dynamic-index probes. The mask is read during Run, never
// written; the caller may update its contents between runs.
func (mc *Machine) SetElide(bs *coverage.Bitset) { mc.elide = bs }

// elided reports whether a dynamic-index probe (path record, pathafl
// segment flush) skips its map write: with a consumed-cell mask
// installed, writes to fully consumed cells are skipped (they can never
// produce novelty, so skipping them is coverage-preserving).
func (mc *Machine) elided(idx uint32) bool { return mc.elide != nil && mc.elide.Has(idx) }

// probeDyn is the slow path's dynamic-index map write.
func (mc *Machine) probeDyn(idx uint32) {
	if !mc.elided(idx) {
		mc.m.Add(idx)
	}
}

// logCmp appends one comparison observation to the log without a call,
// for the dispatch loop. It reports false, logging nothing, when the
// log's capacity is spent below MaxCmpObs; past the limit it drops the
// observation and reports true.
func (mc *Machine) logCmp(a, b, kind int64, taken bool) bool {
	n := len(mc.cmps)
	if n == cap(mc.cmps) {
		return n >= mc.lim.MaxCmpObs
	}
	mc.cmps = mc.cmps[:n+1]
	mc.cmps[n] = vm.CmpObs{A: a, B: b, Op: lang.Kind(kind), Taken: taken}
	return true
}

// grow makes room in whichever pool the dispatch loop found full: the
// comparison log, up to MaxCmpObs, or the map's touched list.
func (mc *Machine) grow() {
	if n := len(mc.cmps); n == cap(mc.cmps) && n < mc.lim.MaxCmpObs {
		c := make([]vm.CmpObs, n, min(max(2*n, 16), mc.lim.MaxCmpObs))
		copy(c, mc.cmps)
		mc.cmps = c
	}
	if t := mc.m.Dirty(); len(t) == cap(t) {
		mc.m.Reserve(256)
	}
}

// record2 is Spec.Path2's path record (PathNGramTracer.record): the
// path's own cell, then the hashed 2-gram of the activation's previous
// path and this one, which then becomes the previous path.
func (mc *Machine) record2(salt uint32, pathID uint64) {
	idx := uint32(pathID) ^ salt
	mc.probeDyn(idx)
	top := len(mc.regs)
	if prev := mc.last[top]; prev != 0 {
		mc.probeDyn(uint32(splitmix64(uint64(prev)<<32 | uint64(idx))))
	}
	mc.last[top] = idx | 1 // never zero, so chains continue
}

// pushReg pushes a fresh path register. Under Spec.Path2 the callee's
// 2-gram context starts at the caller's last path.
func (mc *Machine) pushReg() {
	mc.regs = append(mc.regs, 0)
	if mc.p.spec.Path2 {
		k := len(mc.regs)
		mc.last = append(mc.last[:k], mc.last[k-1])
	}
}

func (mc *Machine) paFlush() {
	if mc.pan == 0 {
		return
	}
	mc.probeDyn(uint32(mc.pah) & 0xffff)
	mc.pah, mc.pan = 0, 0
}

// reset prepares the machine for a run. It clears the cells the last
// run wrote in the current arena block, so every arena cell is zero
// again; clearing here rather than at the end of a run also cleans up
// after a run that panicked.
func (mc *Machine) reset() {
	for _, a := range mc.heap[mc.block:] {
		clear(a.cells[:a.hi])
	}
	mc.frames = mc.frames[:0]
	mc.heap = mc.heap[:0]
	mc.block = 0
	mc.arenaN = 0
	mc.cells = 0
	mc.output = mc.output[:0]
	mc.cmps = mc.cmps[:0]
	mc.regs = mc.regs[:0]
	if mc.last != nil {
		mc.last = mc.last[:1]
	}
	mc.pah, mc.pan = 0, 0
}

// arenaAlloc carves n zero cells from the arena, growing it when
// exhausted. The caller registers them with newArray before anything
// else is carved. Arrays handed out earlier keep the old arena block
// alive, so growth mid-run is safe; the new block is fresh memory, and
// the array about to be registered is the first carved from it.
func (mc *Machine) arenaAlloc(n int) []int64 {
	if mc.arenaN+n > len(mc.arena) {
		sz := len(mc.arena) * 2
		if sz < n {
			sz = n
		}
		if sz < 4096 {
			sz = 4096
		}
		mc.arena = make([]int64, sz)
		mc.arenaN = 0
		mc.block = len(mc.heap)
	}
	s := mc.arena[mc.arenaN : mc.arenaN+n : mc.arenaN+n]
	mc.arenaN += n
	return s
}

// newArray registers cells as a heap array whose first hi cells the
// run has written, and returns its handle.
func (mc *Machine) newArray(cells []int64, hi int) int64 {
	mc.heap = append(mc.heap, harray{cells: cells, hi: hi})
	mc.cells += int64(len(cells))
	return int64(len(mc.heap))
}

func (mc *Machine) growSlots(n int) {
	sz := len(mc.slots) * 2
	if sz < n {
		sz = n
	}
	if sz < 256 {
		sz = 256
	}
	ns := make([]int64, sz)
	copy(ns, mc.slots)
	mc.slots = ns
}

// crash builds a report with the current call stack, mirroring the
// interpreter's report construction field for field.
func (mc *Machine) crash(kind vm.CrashKind, pos lang.Pos, msg string) *vm.Crash {
	c := &vm.Crash{Kind: kind, Msg: msg, Pos: pos}
	if n := len(mc.frames); n > 0 {
		c.Func = mc.p.fns[mc.frames[n-1].fn].name
		c.Stack = append(make([]vm.Frame, 0, n), vm.Frame{Func: c.Func, Pos: pos})
		for i := n - 2; i >= 0; i-- {
			callPos := mc.p.pos[mc.frames[i+1].retPC-1]
			c.Stack = append(c.Stack, vm.Frame{Func: mc.p.fns[mc.frames[i].fn].name, Pos: callPos})
		}
	}
	return c
}

// The dispatch loop's exits. Each takes the pc of the instruction that
// ends the run and the step count, and returns exec's result, so the
// loop calls it only to return: no loop value is live across it.

// fail ends the run with a crash at pc.
//
//go:noinline
func (mc *Machine) fail(pc int32, steps int64, kind vm.CrashKind, msg string) (int64, *vm.Crash, int64) {
	return 0, mc.crash(kind, mc.p.pos[pc], msg), steps
}

// timeout ends the run at a step charge past the budget.
//
//go:noinline
func (mc *Machine) timeout(pc int32, steps int64) (int64, *vm.Crash, int64) {
	return mc.fail(pc, steps, vm.KindTimeout, "step budget exhausted")
}

// stepStop ends the run at a block exit's step charge that reached
// mc.stop: a timeout past the budget, else the injected fault.
//
//go:noinline
func (mc *Machine) stepStop(pc int32, steps int64) (int64, *vm.Crash, int64) {
	if steps > mc.lim.MaxSteps {
		return mc.timeout(pc, steps)
	}
	panic("vm: injected fault at step " + itoa(steps))
}

// oob ends the run on an out-of-bounds heap access.
//
//go:noinline
func (mc *Machine) oob(pc int32, steps int64, kind vm.CrashKind, idx int64, n int) (int64, *vm.Crash, int64) {
	return mc.fail(pc, steps, kind, "index "+itoa(idx)+" out of bounds for length "+itoa(int64(n)))
}

// badHandle ends the run on a null or invalid array handle.
//
//go:noinline
func (mc *Machine) badHandle(pc int32, steps int64, h int64) (int64, *vm.Crash, int64) {
	if h == 0 {
		return mc.fail(pc, steps, vm.KindNullDeref, "null array handle")
	}
	return mc.fail(pc, steps, vm.KindWildPointer, "invalid array handle")
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// itoa formats an int64 without allocation-heavy strconv paths; crash
// construction is cold, but the format must match the interpreter's
// byte for byte.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var buf [21]byte
	i := len(buf)
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Run executes the named entry function on input, exactly as
// vm.Run(prog, entry, input, tracer, limits) would with the tracer the
// program's Spec was lowered from. The returned Result's Output and
// Cmps slices alias pooled buffers valid until the next Run.
func (mc *Machine) Run(entry string, input []byte) vm.Result {
	p := mc.p
	fi, ok := p.src.ByName[entry]
	if !ok {
		return vm.Result{Status: vm.StatusCrash, Crash: &vm.Crash{Kind: vm.KindAbort, Msg: "no entry function " + entry, Func: entry}}
	}
	mc.reset()
	f := &p.fns[fi]
	var argHandle int64
	if f.nparams > 0 {
		cells := mc.arenaAlloc(len(input))
		for i, b := range input {
			cells[i] = int64(b)
		}
		argHandle = mc.newArray(cells, len(cells))
	}
	ret, crash, steps := mc.exec(int32(fi), argHandle)
	res := vm.Result{Ret: ret, Steps: steps, Output: mc.output, Cmps: mc.cmps}
	switch {
	case crash == nil:
		res.Status = vm.StatusOK
	case crash.Kind == vm.KindTimeout:
		res.Status = vm.StatusTimeout
	default:
		res.Status = vm.StatusCrash
		res.Crash = crash
	}
	return res
}

// slowOp runs the instruction at mc.pc out of line, for what the
// dispatch loop keeps off its hot path: the instructions that allocate,
// call, or push a path register (opStr, opAlloc, opOut, opCall,
// opCallPush, opProbePush), path2's records and the PathAFL probes.
// The loop has charged the instruction's steps. Any other opcode
// arrives because a pool it fills is full, with its steps rewound:
// slowOp grows the pools and leaves mc.pc on it, so the loop runs it
// again. It returns a crash that ends the run, or nil to resume at
// mc.pc with mc.steps.
func (mc *Machine) slowOp() *vm.Crash {
	p, pc := mc.p, mc.pc
	in := &p.code[pc]
	fr := &mc.frames[len(mc.frames)-1]
	slots := mc.slots[fr.base : fr.base+fr.size]
	mc.pc = pc + 1
	switch in.op {
	case opStr:
		src := p.strCells[in.imm]
		if mc.cells+int64(len(src)) > mc.lim.MaxHeapCells {
			return mc.crash(vm.KindOOM, p.pos[pc], "heap limit exceeded")
		}
		cells := mc.arenaAlloc(len(src))
		copy(cells, src)
		slots[in.dst] = mc.newArray(cells, len(cells))
	case opAlloc:
		n := slots[in.a]
		if n < 0 || n > mc.lim.MaxAlloc {
			return mc.crash(vm.KindBadAlloc, p.pos[pc], "allocation of "+itoa(n)+" cells")
		}
		if mc.cells+n > mc.lim.MaxHeapCells {
			return mc.crash(vm.KindOOM, p.pos[pc], "heap limit exceeded")
		}
		slots[in.dst] = mc.newArray(mc.arenaAlloc(int(n)), 0)
	case opOut:
		if len(mc.output) < 4096 {
			mc.output = append(mc.output, slots[in.a])
		}
		slots[in.dst] = 0
	case opCall, opCallPush:
		cf := &p.fns[in.imm]
		if len(mc.frames) >= mc.lim.MaxDepth {
			return mc.crash(vm.KindStackOverflow, p.pos[pc], "call depth limit exceeded")
		}
		base := fr.base + fr.size
		if top := int(base + cf.frameSize); top > len(mc.slots) {
			mc.growSlots(top)
			slots = mc.slots[fr.base : fr.base+fr.size]
		}
		cslots := mc.slots[base : base+cf.frameSize]
		clear(cslots)
		nargs := min(int(in.b), int(cf.nparams))
		for i := 0; i < nargs; i++ {
			cslots[i] = slots[p.argSlots[int(in.a)+i]]
		}
		// Field by field: a frame literal is built on the stack with
		// 4-byte stores and copied out with wider loads, which stalls.
		mc.frames = append(mc.frames, mframe{})
		callee := &mc.frames[len(mc.frames)-1]
		callee.fn, callee.base, callee.size, callee.retPC, callee.dst = int32(in.imm), base, cf.frameSize, pc+1, in.dst
		mc.pc = cf.entryPC
		if in.op == opCallPush {
			mc.pushReg()
			mc.pc++
		}
	case opProbePush:
		mc.pushReg()
	case opProbeBack2:
		top := len(mc.regs) - 1
		mc.record2(uint32(in.a), mc.regs[top]+uint64(in.imm))
		mc.regs[top] = uint64(p.backVals[in.b])
	case opProbeRetPath2:
		top := len(mc.regs) - 1
		mc.record2(uint32(in.a), mc.regs[top]+uint64(in.imm))
		mc.regs = mc.regs[:top]
	case opProbePAEnter:
		mc.pah = splitmix64(mc.pah ^ uint64(in.imm))
		mc.pan++
		if mc.pan >= p.spec.Segment {
			mc.paFlush()
		}
	case opProbePAFlush:
		mc.paFlush()
	case opStepFlushRet:
		// The loop charged the block exit; the consumed opRet slot after
		// the flush returns.
		mc.paFlush()
		mc.pc = pc + 2
	default:
		mc.grow()
		mc.pc = pc
	}
	return nil
}

// exec is the dispatch loop. Step accounting replicates the
// interpreter: every opcode lowered from a cfg instruction charges one
// step with a timeout check before executing, and opStepChk charges
// the per-block step (plus the fault-injection hook) after a block's
// instructions and before its terminator.
//
// The loop keeps pc, steps and the frame's slot window in registers,
// so nothing it calls may return into it with them live: exits return
// through the out-of-line helpers above, and everything else that
// calls goes through slowOp, with pc and steps round-tripped through
// the machine and the slot window re-derived from the frame stack. A
// handler that finds a pool full (the comparison log, the map's
// touched list) does so before any effect, rewinds the steps it
// charged and takes the same path, so slowOp grows the pool and the
// instruction runs again.
func (mc *Machine) exec(fi int32, argHandle int64) (int64, *vm.Crash, int64) {
	p := mc.p
	code := p.code

	f := &p.fns[fi]
	if len(mc.frames) >= mc.lim.MaxDepth {
		return 0, mc.crash(vm.KindStackOverflow, f.pos, "call depth limit exceeded"), 0
	}
	mc.frames = append(mc.frames, mframe{fn: fi, size: f.frameSize, retPC: -1, dst: -1})
	if int(f.frameSize) > len(mc.slots) {
		mc.growSlots(int(f.frameSize))
	}
	slots := mc.slots[:f.frameSize]
	clear(slots)
	if f.nparams > 0 {
		slots[0] = argHandle
	}
	pc := f.entryPC
	var steps int64

	for {
		in := &code[pc]
		op := in.op
		if op < opStepChk {
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
		}
		// Operands of the shared handler tails below the switch: a
		// comparison's operands and result, a return's value in a, and
		// a fused instruction's later slot.
		var a, b int64
		var r bool
		var in2 *instr
		switch op {
		case opConst:
			slots[in.dst] = in.imm
		case opMove:
			slots[in.dst] = slots[in.a]
		case opAdd:
			slots[in.dst] = slots[in.a] + slots[in.b]
		case opSub:
			slots[in.dst] = slots[in.a] - slots[in.b]
		case opMul:
			slots[in.dst] = slots[in.a] * slots[in.b]
		case opDiv:
			a, b = slots[in.a], slots[in.b]
			if b == 0 {
				return mc.fail(pc, steps, vm.KindDivByZero, "division by zero")
			}
			if a == math.MinInt64 && b == -1 {
				return mc.fail(pc, steps, vm.KindDivByZero, "integer division overflow")
			}
			slots[in.dst] = a / b
		case opMod:
			a, b = slots[in.a], slots[in.b]
			if b == 0 {
				return mc.fail(pc, steps, vm.KindDivByZero, "modulo by zero")
			}
			if a == math.MinInt64 && b == -1 {
				return mc.fail(pc, steps, vm.KindDivByZero, "integer modulo overflow")
			}
			slots[in.dst] = a % b
		case opBand:
			slots[in.dst] = slots[in.a] & slots[in.b]
		case opBor:
			slots[in.dst] = slots[in.a] | slots[in.b]
		case opBxor:
			slots[in.dst] = slots[in.a] ^ slots[in.b]
		case opShl:
			slots[in.dst] = slots[in.a] << (uint64(slots[in.b]) & 63)
		case opShr:
			slots[in.dst] = slots[in.a] >> (uint64(slots[in.b]) & 63)
		case opEq:
			a, b = slots[in.a], slots[in.b]
			r = a == b
			goto cmp
		case opNe:
			a, b = slots[in.a], slots[in.b]
			r = a != b
			goto cmp
		case opLt:
			a, b = slots[in.a], slots[in.b]
			r = a < b
			goto cmp
		case opLe:
			a, b = slots[in.a], slots[in.b]
			r = a <= b
			goto cmp
		case opGt:
			a, b = slots[in.a], slots[in.b]
			r = a > b
			goto cmp
		case opGe:
			a, b = slots[in.a], slots[in.b]
			r = a >= b
			goto cmp
		case opBadBin:
			return mc.fail(pc, steps, vm.KindAbort, "unknown binary operator")
		case opNeg:
			slots[in.dst] = -slots[in.a]
		case opNot:
			slots[in.dst] = boolToInt(slots[in.a] == 0)
		case opCompl:
			slots[in.dst] = ^slots[in.a]
		case opLoad:
			h := slots[in.a]
			if uint64(h-1) >= uint64(len(mc.heap)) {
				return mc.badHandle(pc, steps, h)
			}
			arr := mc.heap[h-1].cells
			idx := slots[in.b]
			if uint64(idx) >= uint64(len(arr)) {
				return mc.oob(pc, steps, vm.KindOOBRead, idx, len(arr))
			}
			slots[in.dst] = arr[idx]
		case opStore:
			h := slots[in.a]
			if uint64(h-1) >= uint64(len(mc.heap)) {
				return mc.badHandle(pc, steps, h)
			}
			arr := &mc.heap[h-1]
			idx := slots[in.b]
			if uint64(idx) >= uint64(len(arr.cells)) {
				return mc.oob(pc, steps, vm.KindOOBWrite, idx, len(arr.cells))
			}
			arr.cells[idx] = slots[in.dst]
			if int(idx) >= arr.hi {
				arr.hi = int(idx) + 1
			}
		case opLen:
			h := slots[in.a]
			if uint64(h-1) >= uint64(len(mc.heap)) {
				return mc.badHandle(pc, steps, h)
			}
			slots[in.dst] = int64(len(mc.heap[h-1].cells))
		case opAssert:
			if slots[in.a] == 0 {
				return mc.fail(pc, steps, vm.KindAssertFail, "assertion failed")
			}
			slots[in.dst] = 0
		case opAbort:
			return mc.fail(pc, steps, vm.KindAbort, "abort called")
		case opAbs:
			v := slots[in.a]
			if v < 0 {
				v = -v
			}
			slots[in.dst] = v
		case opMin:
			slots[in.dst] = min(slots[in.a], slots[in.b])
		case opMax:
			slots[in.dst] = max(slots[in.a], slots[in.b])
		case opStr, opAlloc, opOut, opCall, opCallPush, opProbePush,
			opProbeBack2, opProbeRetPath2, opProbePAEnter, opProbePAFlush:
			goto slow
		case opNop:
		// Two-slot const+compare superinstructions: the header charged
		// the const's step; the tail charges the comparison's step
		// against its own pos, then evaluates against the immediate.
		case opConstEq:
			a = slots[code[pc+1].a]
			r = a == in.imm
			goto constCmp
		case opConstNe:
			a = slots[code[pc+1].a]
			r = a != in.imm
			goto constCmp
		case opConstLt:
			a = slots[code[pc+1].a]
			r = a < in.imm
			goto constCmp
		case opConstLe:
			a = slots[code[pc+1].a]
			r = a <= in.imm
			goto constCmp
		case opConstGt:
			a = slots[code[pc+1].a]
			r = a > in.imm
			goto constCmp
		case opConstGe:
			a = slots[code[pc+1].a]
			r = a >= in.imm
			goto constCmp
		case opConstAdd:
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			slots[in.dst] = in.imm
			slots[code[pc].dst] = slots[in.a] + in.imm
		case opConstSub:
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			slots[in.dst] = in.imm
			slots[code[pc].dst] = slots[in.a] - in.imm
		case opConstLoad:
			in2 = &code[pc+1]
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			slots[in.dst] = in.imm
			h := slots[in2.a]
			if uint64(h-1) >= uint64(len(mc.heap)) {
				return mc.badHandle(pc, steps, h)
			}
			arr := mc.heap[h-1].cells
			if uint64(in.imm) >= uint64(len(arr)) {
				return mc.oob(pc, steps, vm.KindOOBRead, in.imm, len(arr))
			}
			slots[in2.dst] = arr[in.imm]
		// Operand superinstructions. The header charged the head's step;
		// each later constituent's step is charged against its own slot,
		// and a head that can crash does so before the next step. The
		// move tail runs the dead opMove after the head group, the
		// headCmpBr tail the compare-and-branch after a len or mul head.
		case opConstMul:
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			slots[in.dst] = in.imm
			slots[code[pc].dst] = slots[in.a] * in.imm
		case opConstMove:
			a = in.imm
			slots[in.dst] = a
			goto move
		case opConstAddMove:
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			slots[in.dst] = in.imm
			a = slots[in.a] + in.imm
			slots[code[pc].dst] = a
			goto move
		case opConstSubMove:
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			slots[in.dst] = in.imm
			a = slots[in.a] - in.imm
			slots[code[pc].dst] = a
			goto move
		case opConstMulMove:
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			slots[in.dst] = in.imm
			a = slots[in.a] * in.imm
			slots[code[pc].dst] = a
			goto move
		case opConstLoadMove:
			in2 = &code[pc+1]
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			slots[in.dst] = in.imm
			h := slots[in2.a]
			if uint64(h-1) >= uint64(len(mc.heap)) {
				return mc.badHandle(pc, steps, h)
			}
			arr := mc.heap[h-1].cells
			if uint64(in.imm) >= uint64(len(arr)) {
				return mc.oob(pc, steps, vm.KindOOBRead, in.imm, len(arr))
			}
			a = arr[in.imm]
			slots[in2.dst] = a
			goto move
		case opAddMove:
			a = slots[in.a] + slots[in.b]
			slots[in.dst] = a
			goto move
		case opSubMove:
			a = slots[in.a] - slots[in.b]
			slots[in.dst] = a
			goto move
		case opMulMove:
			a = slots[in.a] * slots[in.b]
			slots[in.dst] = a
			goto move
		case opBandMove:
			a = slots[in.a] & slots[in.b]
			slots[in.dst] = a
			goto move
		case opBorMove:
			a = slots[in.a] | slots[in.b]
			slots[in.dst] = a
			goto move
		case opBxorMove:
			a = slots[in.a] ^ slots[in.b]
			slots[in.dst] = a
			goto move
		case opShlMove:
			a = slots[in.a] << (uint64(slots[in.b]) & 63)
			slots[in.dst] = a
			goto move
		case opShrMove:
			a = slots[in.a] >> (uint64(slots[in.b]) & 63)
			slots[in.dst] = a
			goto move
		case opLoadMove:
			h := slots[in.a]
			if uint64(h-1) >= uint64(len(mc.heap)) {
				return mc.badHandle(pc, steps, h)
			}
			arr := mc.heap[h-1].cells
			idx := slots[in.b]
			if uint64(idx) >= uint64(len(arr)) {
				return mc.oob(pc, steps, vm.KindOOBRead, idx, len(arr))
			}
			a = arr[idx]
			slots[in.dst] = a
			goto move
		case opLenMove:
			h := slots[in.a]
			if uint64(h-1) >= uint64(len(mc.heap)) {
				return mc.badHandle(pc, steps, h)
			}
			a = int64(len(mc.heap[h-1].cells))
			slots[in.dst] = a
			goto move
		case opMulAdd:
			slots[in.dst] = slots[in.a] * slots[in.b]
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			in2 = &code[pc]
			slots[in2.dst] = slots[in2.a] + slots[in2.b]
		case opLenCmpBr:
			h := slots[in.a]
			if uint64(h-1) >= uint64(len(mc.heap)) {
				return mc.badHandle(pc, steps, h)
			}
			slots[in.dst] = int64(len(mc.heap[h-1].cells))
			goto headCmpBr
		case opMulCmpBr:
			slots[in.dst] = slots[in.a] * slots[in.b]
			goto headCmpBr
		case opConstMulCmpBr:
			pc++
			steps++
			if steps > mc.lim.MaxSteps {
				return mc.timeout(pc, steps)
			}
			slots[in.dst] = in.imm
			slots[code[pc].dst] = slots[in.a] * in.imm
			goto headCmpBr
		// Compare-and-branch: the header charged the comparison's step;
		// the tail stores the result, performs the block exit's
		// accounting against the fused opStepBr slot's pos, and
		// branches on the result.
		case opEqStepBr:
			a, b = slots[in.a], slots[in.b]
			r = a == b
			goto cmpBr
		case opNeStepBr:
			a, b = slots[in.a], slots[in.b]
			r = a != b
			goto cmpBr
		case opLtStepBr:
			a, b = slots[in.a], slots[in.b]
			r = a < b
			goto cmpBr
		case opLeStepBr:
			a, b = slots[in.a], slots[in.b]
			r = a <= b
			goto cmpBr
		case opGtStepBr:
			a, b = slots[in.a], slots[in.b]
			r = a > b
			goto cmpBr
		case opGeStepBr:
			a, b = slots[in.a], slots[in.b]
			r = a >= b
			goto cmpBr
		// Const+compare+branch: three live slots (const head charged by
		// the header, dead compare, dead opStepBr), three step charges,
		// each timing out against its own slot's pos.
		case opConstEqStepBr:
			a = slots[code[pc+1].a]
			r = a == in.imm
			goto constCmpBr
		case opConstNeStepBr:
			a = slots[code[pc+1].a]
			r = a != in.imm
			goto constCmpBr
		case opConstLtStepBr:
			a = slots[code[pc+1].a]
			r = a < in.imm
			goto constCmpBr
		case opConstLeStepBr:
			a = slots[code[pc+1].a]
			r = a <= in.imm
			goto constCmpBr
		case opConstGtStepBr:
			a = slots[code[pc+1].a]
			r = a > in.imm
			goto constCmpBr
		case opConstGeStepBr:
			a = slots[code[pc+1].a]
			r = a >= in.imm
			goto constCmpBr
		case opStepChk:
			steps++
			if steps >= mc.stop {
				return mc.stepStop(pc, steps)
			}
		case opJmp:
			pc = in.a
			continue
		case opBr:
			if slots[in.a] != 0 {
				pc = in.b
			} else {
				pc = in.dst
			}
			continue
		case opRet:
			if in.a >= 0 {
				a = slots[in.a]
			}
			goto ret
		case opProbeAdd:
			if !mc.m.TryAdd(uint32(in.imm)) {
				goto slow
			}
		case opProbeInc:
			mc.regs[len(mc.regs)-1] += uint64(in.imm)
		case opProbeBack:
			top := len(mc.regs) - 1
			if idx := uint32(mc.regs[top]+uint64(in.imm)) ^ uint32(in.a); !mc.elided(idx) && !mc.m.TryAdd(idx) {
				goto slow
			}
			mc.regs[top] = uint64(mc.p.backVals[in.b])
		case opProbeRetPath:
			top := len(mc.regs) - 1
			if idx := uint32(mc.regs[top]+uint64(in.imm)) ^ uint32(in.a); !mc.elided(idx) && !mc.m.TryAdd(idx) {
				goto slow
			}
			mc.regs = mc.regs[:top]
		case opProbeHashEdge:
			top := len(mc.regs) - 1
			mc.regs[top] = splitmix64(mc.regs[top] ^ uint64(in.imm))
		// Fused block exits. Each does opStepChk's work — step charge,
		// then the timeout check and fault-injection hook against the
		// head slot's pos — then the folded probe and transfer, in the
		// exact order of the unfused sequence.
		case opStepBr:
			steps++
			if steps >= mc.stop {
				return mc.stepStop(pc, steps)
			}
			if slots[in.a] != 0 {
				pc = in.b
			} else {
				pc = in.dst
			}
			continue
		case opStepJmp:
			steps++
			if steps >= mc.stop {
				return mc.stepStop(pc, steps)
			}
			pc = in.a
			continue
		case opStepRet:
			steps++
			if steps >= mc.stop {
				return mc.stepStop(pc, steps)
			}
			if in.a >= 0 {
				a = slots[in.a]
			}
			goto ret
		case opStepAddJmp:
			steps++
			if steps >= mc.stop {
				return mc.stepStop(pc, steps)
			}
			if !mc.m.TryAdd(uint32(in.imm)) {
				steps--
				goto slow
			}
			pc = in.a
			continue
		case opStepIncJmp:
			steps++
			if steps >= mc.stop {
				return mc.stepStop(pc, steps)
			}
			mc.regs[len(mc.regs)-1] += uint64(in.imm)
			pc = in.a
			continue
		case opStepBackJmp:
			steps++
			if steps >= mc.stop {
				return mc.stepStop(pc, steps)
			}
			top := len(mc.regs) - 1
			if idx := uint32(mc.regs[top]+uint64(in.imm)) ^ uint32(in.a); !mc.elided(idx) && !mc.m.TryAdd(idx) {
				steps--
				goto slow
			}
			mc.regs[top] = uint64(mc.p.backVals[in.b])
			pc = in.dst
			continue
		case opStepRetPathRet:
			steps++
			if steps >= mc.stop {
				return mc.stepStop(pc, steps)
			}
			top := len(mc.regs) - 1
			if idx := uint32(mc.regs[top]+uint64(in.imm)) ^ uint32(in.a); !mc.elided(idx) && !mc.m.TryAdd(idx) {
				steps--
				goto slow
			}
			mc.regs = mc.regs[:top]
			if in.b >= 0 {
				a = slots[in.b]
			}
			goto ret
		case opStepFlushRet:
			steps++
			if steps >= mc.stop {
				return mc.stepStop(pc, steps)
			}
			goto slow
		case opAddJmp:
			if !mc.m.TryAdd(uint32(in.imm)) {
				goto slow
			}
			pc = in.a
			continue
		case opIncJmp:
			mc.regs[len(mc.regs)-1] += uint64(in.imm)
			pc = in.a
			continue
		case opBackJmp:
			top := len(mc.regs) - 1
			if idx := uint32(mc.regs[top]+uint64(in.imm)) ^ uint32(in.a); !mc.elided(idx) && !mc.m.TryAdd(idx) {
				goto slow
			}
			mc.regs[top] = uint64(mc.p.backVals[in.b])
			pc = in.dst
			continue
		case opElide:
			// A patched-out probe: no map write, no step charge.
		}
		pc++
		continue

		// The comparison tails. Each logs the comparison before any
		// other effect, so a full log rewinds the steps charged.
	cmp:
		if !mc.logCmp(a, b, in.imm, r) {
			steps--
			goto slow
		}
		slots[in.dst] = boolToInt(r)
		pc++
		continue
	constCmp:
		in2 = &code[pc+1]
		steps++
		if steps > mc.lim.MaxSteps {
			return mc.timeout(pc+1, steps)
		}
		if !mc.logCmp(a, in.imm, in2.imm, r) {
			steps -= 2
			goto slow
		}
		slots[in.dst] = in.imm
		slots[in2.dst] = boolToInt(r)
		pc += 2
		continue
	constCmpBr:
		in2 = &code[pc+1]
		steps++
		if steps > mc.lim.MaxSteps {
			return mc.timeout(pc+1, steps)
		}
		if !mc.logCmp(a, in.imm, in2.imm, r) {
			steps -= 2
			goto slow
		}
		slots[in.dst] = in.imm
		slots[in2.dst] = boolToInt(r)
		pc += 2
		goto exitBr
	cmpBr:
		if !mc.logCmp(a, b, in.imm, r) {
			steps--
			goto slow
		}
		slots[in.dst] = boolToInt(r)
		pc++
	exitBr:
		// The dead opStepBr slot at pc: its step, then the branch on r.
		in2 = &code[pc]
		steps++
		if steps >= mc.stop {
			return mc.stepStop(pc, steps)
		}
		if r {
			pc = in2.b
		} else {
			pc = in2.dst
		}
		continue

		// move runs the dead opMove after the head group ending at pc:
		// its step, then the copy of the group's result, which the head
		// left in a as well as in the slot the move reads.
	move:
		pc++
		steps++
		if steps > mc.lim.MaxSteps {
			return mc.timeout(pc, steps)
		}
		slots[code[pc].dst] = a
		pc++
		continue
		// headCmpBr runs the compare-and-branch group after the len or
		// mul ending at pc: the compare's step against its own slot, the
		// comparison as the truth table in the len or mul slot reads it,
		// logged as cmpBr logs it, then the block exit. A full log
		// rewinds to the compare slot, itself a compare-and-branch head,
		// with the head's work done.
	headCmpBr:
		in2 = &code[pc+1]
		pc++
		steps++
		if steps > mc.lim.MaxSteps {
			return mc.timeout(pc, steps)
		}
		a, b = slots[in2.a], slots[in2.b]
		r = uint64(code[pc-1].imm)>>cmpBit(a, b)&1 != 0
		if !mc.logCmp(a, b, in2.imm, r) {
			steps--
			goto slow
		}
		slots[in2.dst] = boolToInt(r)
		pc++
		goto exitBr

		// ret returns a from the current frame.
	ret:
		if n := len(mc.frames) - 1; n > 0 {
			callee, caller := &mc.frames[n], &mc.frames[n-1]
			slots = mc.slots[caller.base : caller.base+caller.size]
			slots[callee.dst] = a
			pc = callee.retPC
			mc.frames = mc.frames[:n]
			continue
		}
		return a, nil, steps

	slow:
		mc.pc, mc.steps = pc, steps
		if crash := mc.slowOp(); crash != nil {
			return 0, crash, mc.steps
		}
		pc, steps = mc.pc, mc.steps
		fr := &mc.frames[len(mc.frames)-1]
		slots = mc.slots[fr.base : fr.base+fr.size]
	}
}
