package bytecode

import (
	"math"

	"repro/internal/coverage"
	"repro/internal/lang"
	"repro/internal/vm"
)

// mframe is one pooled call frame: the executing function, where its
// slots start in the shared slot stack, and where to resume in the
// caller. cfs caches the caller's frame size so a return restores
// base/fsize without touching the function table (base - cfs is the
// caller's base). The call-site position for crash stacks is not
// stored — it is recovered cold as Program.pos[retPC-1].
type mframe struct {
	fn    int32
	base  int32
	retPC int32
	dst   int32
	cfs   int32
}

// Machine executes a compiled Program. All execution state — slot
// stack, call frames, heap arrays, comparison and output buffers —
// is pooled and reset between runs, so a warmed-up machine performs
// zero allocations per execution. A machine is single-threaded; share
// the Program, not the Machine.
//
// Results reference the machine's pooled buffers: Result.Output and
// Result.Cmps are valid only until the next Run. Callers that keep
// them across executions must copy.
type Machine struct {
	p        *Program
	m        *coverage.Map
	lim      vm.Limits
	injectAt int64

	// slots is the shared slot stack; frames carve [base, base+size).
	slots  []int64
	frames []mframe
	// heap maps handles (1-based) to arrays; the arrays themselves are
	// carved from arena, which is bump-allocated and reset per run.
	heap   [][]int64
	arena  []int64
	arenaN int
	cells  int64
	output []int64
	cmps   []vm.CmpObs
	// regs is the Ball-Larus path register stack (ProbePath).
	regs []uint64
	// last[i+1] is the mixed ID of the previous path recorded by the
	// activation owning regs[i], or its caller's at entry (Spec.Path2
	// only). last[0] is a zero sentinel, the entry function's "caller";
	// 0 means no path yet. Pops leave last alone: the next push
	// truncates it to the live stack.
	last []uint32
	// hist is the n-gram block window (ProbeNGram).
	hist    []uint32
	histPos int
	// pah/pan are the PathAFL rolling segment hash and length.
	pah uint64
	pan int
	// elide, when non-nil, is the consumed-cell mask of the
	// coverage-guided tracing engine: dynamic-index probes (path record,
	// pathafl segment flush, n-gram hash) skip the map write when their
	// cell is fully consumed, the record-side analogue of the static
	// opProbeAdd patching. Everything else about the probe — path
	// register updates, segment hash state, the n-gram window — still
	// runs, so execution state stays identical to the pristine machine.
	elide *coverage.Bitset
}

// NewMachine builds an execution machine over p, writing coverage to m
// under the given limits.
func NewMachine(p *Program, m *coverage.Map, lim vm.Limits) *Machine {
	mc := &Machine{p: p, m: m, lim: lim, injectAt: math.MaxInt64}
	if lim.InjectPanicAtStep > 0 {
		mc.injectAt = lim.InjectPanicAtStep
	}
	if p.spec.Kind == ProbeNGram {
		n := p.spec.NGram
		if n <= 0 {
			n = 1
		}
		mc.hist = make([]uint32, n)
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

// probeDyn is the dynamic-index map write behind record, paFlush, and
// the n-gram probe: with a consumed-cell mask installed, writes to
// fully consumed cells are skipped (they can never produce novelty, so
// skipping them is coverage-preserving).
func (mc *Machine) probeDyn(idx uint32) {
	if mc.elide != nil && mc.elide.Has(idx) {
		return
	}
	mc.m.Add(idx)
}

func (mc *Machine) reset() {
	mc.frames = mc.frames[:0]
	mc.heap = mc.heap[:0]
	mc.arenaN = 0
	mc.cells = 0
	mc.output = mc.output[:0]
	mc.cmps = mc.cmps[:0]
	mc.regs = mc.regs[:0]
	if mc.last != nil {
		mc.last = mc.last[:1]
	}
	if mc.hist != nil {
		clear(mc.hist)
		mc.histPos = 0
	}
	mc.pah, mc.pan = 0, 0
}

// arenaAlloc carves n cells from the arena, growing it when exhausted.
// Arrays handed out earlier keep the old arena block alive, so growth
// mid-run is safe; the contents are NOT cleared (callers overwrite or
// clear as their semantics require).
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
	}
	s := mc.arena[mc.arenaN : mc.arenaN+n : mc.arenaN+n]
	mc.arenaN += n
	return s
}

func (mc *Machine) newArray(cells []int64) int64 {
	mc.heap = append(mc.heap, cells)
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
		c.Stack = append(c.Stack, vm.Frame{Func: c.Func, Pos: pos})
		for i := n - 2; i >= 0; i-- {
			callPos := mc.p.pos[mc.frames[i+1].retPC-1]
			c.Stack = append(c.Stack, vm.Frame{Func: mc.p.fns[mc.frames[i].fn].name, Pos: callPos})
		}
	}
	return c
}

func (mc *Machine) arrayAt(h int64, pos lang.Pos) ([]int64, *vm.Crash) {
	if h == 0 {
		return nil, mc.crash(vm.KindNullDeref, pos, "null array handle")
	}
	if h < 0 || h > int64(len(mc.heap)) {
		return nil, mc.crash(vm.KindWildPointer, pos, "invalid array handle")
	}
	return mc.heap[h-1], nil
}

// record is the path-termination map update (PathTracer.record), plus
// the 2-gram with the activation's previous path under Spec.Path2
// (PathNGramTracer.record).
func (mc *Machine) record(salt uint32, pathID uint64) {
	var idx uint32
	if mc.p.spec.MixHash {
		idx = uint32(splitmix64(pathID ^ (uint64(salt) << 32)))
	} else {
		idx = uint32(pathID) ^ salt
	}
	mc.probeDyn(idx)
	if mc.p.spec.Path2 {
		mc.recordPair(idx)
	}
}

// recordPair is Spec.Path2's part of record, kept out of line so plain
// path records stay lean: the hashed 2-gram of the activation's
// previous path and idx, which then becomes the previous path.
func (mc *Machine) recordPair(idx uint32) {
	top := len(mc.regs)
	if prev := mc.last[top]; prev != 0 {
		mc.probeDyn(uint32(splitmix64(uint64(prev)<<32 | uint64(idx))))
	}
	mc.last[top] = idx | 1 // never zero, so chains continue
}

func (mc *Machine) paFlush() {
	if mc.pan == 0 {
		return
	}
	mc.probeDyn(uint32(mc.pah) & 0xffff)
	mc.pah, mc.pan = 0, 0
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func oobMsg(idx int64, n int) string {
	return "index " + itoa(idx) + " out of bounds for length " + itoa(int64(n))
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
		argHandle = mc.newArray(cells)
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

// exec is the dispatch loop. Step accounting replicates the
// interpreter: every opcode lowered from a cfg instruction charges one
// step with a timeout check before executing, and opStepChk charges
// the per-block step (plus the fault-injection hook) after a block's
// instructions and before its terminator.
func (mc *Machine) exec(fi int32, argHandle int64) (int64, *vm.Crash, int64) {
	p := mc.p
	lim := &mc.lim
	code := p.code
	var steps int64
	// Hot-loop constants, hoisted out of the dispatch so each iteration
	// reads registers instead of chasing mc/lim pointers.
	maxSteps := lim.MaxSteps
	maxCmp := lim.MaxCmpObs
	maxDepth := lim.MaxDepth
	injectAt := mc.injectAt

	f := &p.fns[fi]
	if len(mc.frames) >= maxDepth {
		return 0, mc.crash(vm.KindStackOverflow, f.pos, "call depth limit exceeded"), steps
	}
	mc.frames = append(mc.frames, mframe{fn: fi, base: 0, retPC: -1, dst: -1})
	base, fsize := int32(0), f.frameSize
	if int(fsize) > len(mc.slots) {
		mc.growSlots(int(fsize))
	}
	slots := mc.slots[:fsize]
	clear(slots)
	if f.nparams > 0 {
		slots[0] = argHandle
	}
	pc := f.entryPC

	for {
		in := &code[pc]
		pc++
		op := in.op
		if op < opStepChk {
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
		}
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
			a, b := slots[in.a], slots[in.b]
			if b == 0 {
				return 0, mc.crash(vm.KindDivByZero, p.pos[pc-1], "division by zero"), steps
			}
			if a == math.MinInt64 && b == -1 {
				return 0, mc.crash(vm.KindDivByZero, p.pos[pc-1], "integer division overflow"), steps
			}
			slots[in.dst] = a / b
		case opMod:
			a, b := slots[in.a], slots[in.b]
			if b == 0 {
				return 0, mc.crash(vm.KindDivByZero, p.pos[pc-1], "modulo by zero"), steps
			}
			if a == math.MinInt64 && b == -1 {
				return 0, mc.crash(vm.KindDivByZero, p.pos[pc-1], "integer modulo overflow"), steps
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
			a, b := slots[in.a], slots[in.b]
			r := a == b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
		case opNe:
			a, b := slots[in.a], slots[in.b]
			r := a != b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
		case opLt:
			a, b := slots[in.a], slots[in.b]
			r := a < b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
		case opLe:
			a, b := slots[in.a], slots[in.b]
			r := a <= b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
		case opGt:
			a, b := slots[in.a], slots[in.b]
			r := a > b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
		case opGe:
			a, b := slots[in.a], slots[in.b]
			r := a >= b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
		case opBadBin:
			return 0, mc.crash(vm.KindAbort, p.pos[pc-1], "unknown binary operator"), steps
		case opNeg:
			slots[in.dst] = -slots[in.a]
		case opNot:
			slots[in.dst] = boolToInt(slots[in.a] == 0)
		case opCompl:
			slots[in.dst] = ^slots[in.a]
		case opStr:
			src := p.strCells[in.imm]
			if mc.cells+int64(len(src)) > lim.MaxHeapCells {
				return 0, mc.crash(vm.KindOOM, p.pos[pc-1], "heap limit exceeded"), steps
			}
			cells := mc.arenaAlloc(len(src))
			copy(cells, src)
			slots[in.dst] = mc.newArray(cells)
		case opLoad:
			// Fast path: valid handle, in-bounds index. The crash paths
			// (and their lang.Pos materialisation) stay off it entirely.
			h := slots[in.a]
			if uint64(h-1) < uint64(len(mc.heap)) {
				arr := mc.heap[h-1]
				idx := slots[in.b]
				if uint64(idx) < uint64(len(arr)) {
					slots[in.dst] = arr[idx]
					continue
				}
				return 0, mc.crash(vm.KindOOBRead, p.pos[pc-1], oobMsg(idx, len(arr))), steps
			}
			_, crash := mc.arrayAt(h, p.pos[pc-1])
			return 0, crash, steps
		case opStore:
			h := slots[in.a]
			if uint64(h-1) < uint64(len(mc.heap)) {
				arr := mc.heap[h-1]
				idx := slots[in.b]
				if uint64(idx) < uint64(len(arr)) {
					arr[idx] = slots[in.dst]
					continue
				}
				return 0, mc.crash(vm.KindOOBWrite, p.pos[pc-1], oobMsg(idx, len(arr))), steps
			}
			_, crash := mc.arrayAt(h, p.pos[pc-1])
			return 0, crash, steps
		case opCall:
			cf := &p.fns[in.imm]
			if len(mc.frames) >= maxDepth {
				return 0, mc.crash(vm.KindStackOverflow, p.pos[pc-1], "call depth limit exceeded"), steps
			}
			newBase := base + fsize
			if top := int(newBase) + int(cf.frameSize); top > len(mc.slots) {
				mc.growSlots(top)
				slots = mc.slots[base : base+fsize]
			}
			cslots := mc.slots[newBase : newBase+cf.frameSize]
			clear(cslots)
			nargs := int(in.b)
			if nargs > int(cf.nparams) {
				nargs = int(cf.nparams)
			}
			for i := 0; i < nargs; i++ {
				cslots[i] = slots[p.argSlots[int(in.a)+i]]
			}
			mc.frames = append(mc.frames, mframe{fn: int32(in.imm), base: newBase, retPC: pc, dst: in.dst, cfs: fsize})
			base, fsize, slots = newBase, cf.frameSize, cslots
			pc = cf.entryPC
		case opLen:
			h := slots[in.a]
			if uint64(h-1) < uint64(len(mc.heap)) {
				slots[in.dst] = int64(len(mc.heap[h-1]))
				continue
			}
			_, crash := mc.arrayAt(h, p.pos[pc-1])
			return 0, crash, steps
		case opAlloc:
			n := slots[in.a]
			if n < 0 || n > lim.MaxAlloc {
				return 0, mc.crash(vm.KindBadAlloc, p.pos[pc-1], "allocation of "+itoa(n)+" cells"), steps
			}
			if mc.cells+n > lim.MaxHeapCells {
				return 0, mc.crash(vm.KindOOM, p.pos[pc-1], "heap limit exceeded"), steps
			}
			cells := mc.arenaAlloc(int(n))
			clear(cells)
			slots[in.dst] = mc.newArray(cells)
		case opAssert:
			if slots[in.a] == 0 {
				return 0, mc.crash(vm.KindAssertFail, p.pos[pc-1], "assertion failed"), steps
			}
			slots[in.dst] = 0
		case opAbort:
			return 0, mc.crash(vm.KindAbort, p.pos[pc-1], "abort called"), steps
		case opAbs:
			v := slots[in.a]
			if v < 0 {
				v = -v
			}
			slots[in.dst] = v
		case opMin:
			a, b := slots[in.a], slots[in.b]
			if b < a {
				a = b
			}
			slots[in.dst] = a
		case opMax:
			a, b := slots[in.a], slots[in.b]
			if b > a {
				a = b
			}
			slots[in.dst] = a
		case opOut:
			if len(mc.output) < 4096 {
				mc.output = append(mc.output, slots[in.a])
			}
			slots[in.dst] = 0
		case opNop:
		// Two-slot const+compare superinstructions: the header charged
		// the const's step; the handler charges the comparison's step
		// against its own pos, then evaluates against the immediate.
		case opConstEq:
			in2 := &code[pc]
			pc++
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a == cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
		case opConstNe:
			in2 := &code[pc]
			pc++
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a != cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
		case opConstLt:
			in2 := &code[pc]
			pc++
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a < cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
		case opConstLe:
			in2 := &code[pc]
			pc++
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a <= cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
		case opConstGt:
			in2 := &code[pc]
			pc++
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a > cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
		case opConstGe:
			in2 := &code[pc]
			pc++
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a >= cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
		case opConstAdd:
			in2 := &code[pc]
			pc++
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			slots[in2.dst] = slots[in.a] + cv
		case opConstSub:
			in2 := &code[pc]
			pc++
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			slots[in2.dst] = slots[in.a] - cv
		case opConstLoad:
			in2 := &code[pc]
			pc++
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			h := slots[in2.a]
			if uint64(h-1) < uint64(len(mc.heap)) {
				arr := mc.heap[h-1]
				if uint64(cv) < uint64(len(arr)) {
					slots[in2.dst] = arr[cv]
					continue
				}
				return 0, mc.crash(vm.KindOOBRead, p.pos[pc-1], oobMsg(cv, len(arr))), steps
			}
			_, crash := mc.arrayAt(h, p.pos[pc-1])
			return 0, crash, steps
		// Compare-and-branch: the header charged the comparison's step;
		// the handler stores the result, performs the block exit's
		// accounting against the fused opStepBr slot's pos, and
		// branches on the result.
		case opEqStepBr:
			in2 := &code[pc]
			pc++
			a, b := slots[in.a], slots[in.b]
			r := a == b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in2.b
			} else {
				pc = in2.dst
			}
		case opNeStepBr:
			in2 := &code[pc]
			pc++
			a, b := slots[in.a], slots[in.b]
			r := a != b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in2.b
			} else {
				pc = in2.dst
			}
		case opLtStepBr:
			in2 := &code[pc]
			pc++
			a, b := slots[in.a], slots[in.b]
			r := a < b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in2.b
			} else {
				pc = in2.dst
			}
		case opLeStepBr:
			in2 := &code[pc]
			pc++
			a, b := slots[in.a], slots[in.b]
			r := a <= b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in2.b
			} else {
				pc = in2.dst
			}
		case opGtStepBr:
			in2 := &code[pc]
			pc++
			a, b := slots[in.a], slots[in.b]
			r := a > b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in2.b
			} else {
				pc = in2.dst
			}
		case opGeStepBr:
			in2 := &code[pc]
			pc++
			a, b := slots[in.a], slots[in.b]
			r := a >= b
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: b, Op: lang.Kind(in.imm), Taken: r})
			}
			slots[in.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in2.b
			} else {
				pc = in2.dst
			}
		// Const+compare+branch: three live slots (const head charged by
		// the header, dead compare, dead opStepBr), three step charges,
		// each timing out against its own slot's pos.
		case opConstEqStepBr:
			in2, in3 := &code[pc], &code[pc+1]
			pc += 2
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-2], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a == cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in3.b
			} else {
				pc = in3.dst
			}
		case opConstNeStepBr:
			in2, in3 := &code[pc], &code[pc+1]
			pc += 2
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-2], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a != cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in3.b
			} else {
				pc = in3.dst
			}
		case opConstLtStepBr:
			in2, in3 := &code[pc], &code[pc+1]
			pc += 2
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-2], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a < cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in3.b
			} else {
				pc = in3.dst
			}
		case opConstLeStepBr:
			in2, in3 := &code[pc], &code[pc+1]
			pc += 2
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-2], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a <= cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in3.b
			} else {
				pc = in3.dst
			}
		case opConstGtStepBr:
			in2, in3 := &code[pc], &code[pc+1]
			pc += 2
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-2], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a > cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in3.b
			} else {
				pc = in3.dst
			}
		case opConstGeStepBr:
			in2, in3 := &code[pc], &code[pc+1]
			pc += 2
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-2], "step budget exhausted"), steps
			}
			cv := in.imm
			slots[in.dst] = cv
			a := slots[in2.a]
			r := a >= cv
			if len(mc.cmps) < maxCmp {
				mc.cmps = append(mc.cmps, vm.CmpObs{A: a, B: cv, Op: lang.Kind(in2.imm), Taken: r})
			}
			slots[in2.dst] = boolToInt(r)
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if r {
				pc = in3.b
			} else {
				pc = in3.dst
			}
		case opCallPush:
			cf := &p.fns[in.imm]
			if len(mc.frames) >= maxDepth {
				return 0, mc.crash(vm.KindStackOverflow, p.pos[pc-1], "call depth limit exceeded"), steps
			}
			newBase := base + fsize
			if top := int(newBase) + int(cf.frameSize); top > len(mc.slots) {
				mc.growSlots(top)
				slots = mc.slots[base : base+fsize]
			}
			cslots := mc.slots[newBase : newBase+cf.frameSize]
			clear(cslots)
			nargs := int(in.b)
			if nargs > int(cf.nparams) {
				nargs = int(cf.nparams)
			}
			for i := 0; i < nargs; i++ {
				cslots[i] = slots[p.argSlots[int(in.a)+i]]
			}
			mc.frames = append(mc.frames, mframe{fn: int32(in.imm), base: newBase, retPC: pc, dst: in.dst, cfs: fsize})
			base, fsize, slots = newBase, cf.frameSize, cslots
			mc.regs = append(mc.regs, 0)
			if p.spec.Path2 {
				// The callee's 2-gram context starts at the caller's
				// last path.
				k := len(mc.regs)
				mc.last = append(mc.last[:k], mc.last[k-1])
			}
			pc = cf.entryPC + 1
		case opStepChk:
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
		case opJmp:
			pc = in.a
		case opBr:
			if slots[in.a] != 0 {
				pc = in.b
			} else {
				pc = in.dst
			}
		case opRet:
			var v int64
			if in.a >= 0 {
				v = slots[in.a]
			}
			fr := mc.frames[len(mc.frames)-1]
			mc.frames = mc.frames[:len(mc.frames)-1]
			if len(mc.frames) == 0 {
				return v, nil, steps
			}
			base = fr.base - fr.cfs
			fsize = fr.cfs
			slots = mc.slots[base : base+fsize]
			slots[fr.dst] = v
			pc = fr.retPC
		case opProbeAdd:
			mc.m.Add(uint32(in.imm))
		case opProbePush:
			mc.regs = append(mc.regs, 0)
			if p.spec.Path2 {
				k := len(mc.regs)
				mc.last = append(mc.last[:k], mc.last[k-1])
			}
		case opProbeInc:
			mc.regs[len(mc.regs)-1] += uint64(in.imm)
		case opProbeBack:
			top := len(mc.regs) - 1
			mc.record(uint32(in.a), mc.regs[top]+uint64(in.imm))
			mc.regs[top] = uint64(p.backVals[in.b])
		case opProbeRetPath:
			top := len(mc.regs) - 1
			mc.record(uint32(in.a), mc.regs[top]+uint64(in.imm))
			mc.regs = mc.regs[:top]
		case opProbeHashEdge:
			top := len(mc.regs) - 1
			mc.regs[top] = splitmix64(mc.regs[top] ^ uint64(in.imm))
		case opProbeVisit:
			mc.hist[mc.histPos] = uint32(in.imm)
			mc.histPos = (mc.histPos + 1) % len(mc.hist)
			if mc.elide == nil {
				ngramVisit(mc.m, mc.hist, mc.histPos)
			} else {
				mc.probeDyn(uint32(ngramHash(mc.hist, mc.histPos)))
			}
		case opProbePAEnter:
			mc.pah = splitmix64(mc.pah ^ uint64(in.imm))
			mc.pan++
			if mc.pan >= p.spec.Segment {
				mc.paFlush()
			}
		case opProbePAFlush:
			mc.paFlush()
		// Fused block exits. Each does opStepChk's work — step charge,
		// timeout check against the head slot's pos, fault-injection
		// hook — then the folded probe and transfer, in the exact order
		// of the unfused sequence.
		case opStepBr:
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			if slots[in.a] != 0 {
				pc = in.b
			} else {
				pc = in.dst
			}
		case opStepJmp:
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			pc = in.a
		case opStepRet:
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			var v int64
			if in.a >= 0 {
				v = slots[in.a]
			}
			fr := mc.frames[len(mc.frames)-1]
			mc.frames = mc.frames[:len(mc.frames)-1]
			if len(mc.frames) == 0 {
				return v, nil, steps
			}
			base = fr.base - fr.cfs
			fsize = fr.cfs
			slots = mc.slots[base : base+fsize]
			slots[fr.dst] = v
			pc = fr.retPC
		case opStepAddJmp:
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			mc.m.Add(uint32(in.imm))
			pc = in.a
		case opStepIncJmp:
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			mc.regs[len(mc.regs)-1] += uint64(in.imm)
			pc = in.a
		case opStepBackJmp:
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			top := len(mc.regs) - 1
			mc.record(uint32(in.a), mc.regs[top]+uint64(in.imm))
			mc.regs[top] = uint64(p.backVals[in.b])
			pc = in.dst
		case opStepRetPathRet:
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			top := len(mc.regs) - 1
			mc.record(uint32(in.a), mc.regs[top]+uint64(in.imm))
			mc.regs = mc.regs[:top]
			var v int64
			if in.b >= 0 {
				v = slots[in.b]
			}
			fr := mc.frames[len(mc.frames)-1]
			mc.frames = mc.frames[:len(mc.frames)-1]
			if len(mc.frames) == 0 {
				return v, nil, steps
			}
			base = fr.base - fr.cfs
			fsize = fr.cfs
			slots = mc.slots[base : base+fsize]
			slots[fr.dst] = v
			pc = fr.retPC
		case opStepFlushRet:
			steps++
			if steps > maxSteps {
				return 0, mc.crash(vm.KindTimeout, p.pos[pc-1], "step budget exhausted"), steps
			}
			if steps >= injectAt {
				panic("vm: injected fault at step " + itoa(steps))
			}
			mc.paFlush()
			var v int64
			if in.a >= 0 {
				v = slots[in.a]
			}
			fr := mc.frames[len(mc.frames)-1]
			mc.frames = mc.frames[:len(mc.frames)-1]
			if len(mc.frames) == 0 {
				return v, nil, steps
			}
			base = fr.base - fr.cfs
			fsize = fr.cfs
			slots = mc.slots[base : base+fsize]
			slots[fr.dst] = v
			pc = fr.retPC
		case opAddJmp:
			mc.m.Add(uint32(in.imm))
			pc = in.a
		case opIncJmp:
			mc.regs[len(mc.regs)-1] += uint64(in.imm)
			pc = in.a
		case opBackJmp:
			top := len(mc.regs) - 1
			mc.record(uint32(in.a), mc.regs[top]+uint64(in.imm))
			mc.regs[top] = uint64(p.backVals[in.b])
			pc = in.dst
		case opElide:
			// A patched-out probe: no map write, no step charge.
		}
	}
}
