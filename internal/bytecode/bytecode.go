// Package bytecode is the compiled execution engine of the
// reproduction: it lowers a cfg.Program once into a flat, pre-resolved
// instruction array with the coverage instrumentation inlined as
// direct map writes, and executes it on a pooled, allocation-free
// machine.
//
// The reference semantics remain package vm's CFG-walking interpreter;
// the bytecode engine is required to be observationally identical to
// it — same results, same crash reports, same step accounting, same
// coverage map contents for every feedback it supports. The
// differential tests enforce this equivalence on every benchmark
// subject.
//
// The design mirrors what coverage-guided tracing work (Nagy et al.)
// and Angora identify as the highest-leverage fuzzing optimisation:
// per-execution dispatch and tracing overhead. Three costs of the
// interpreter are removed here:
//
//   - block/instruction re-resolution: jump targets, callee entry
//     points, and builtin identities are resolved at compile time into
//     absolute program counters and specialised opcodes;
//   - tracer interface dispatch: each feedback mechanism (edge,
//     Ball-Larus path with its 2-gram and selective variants,
//     PathAFL-like) is lowered at compile time to probe instructions
//     placed exactly where its events fire, writing straight into the
//     coverage map;
//   - hot-loop allocation: frames carve slots from one reusable stack,
//     arrays are carved from a reusable arena, and the comparison /
//     output buffers are reset rather than reallocated, so steady-state
//     executions allocate nothing. The arena is kept zero between runs
//     by clearing only the cells a run wrote, so an allocation costs
//     O(1), not its size.
package bytecode

import (
	"repro/internal/balllarus"
	"repro/internal/cfg"
	"repro/internal/lang"
)

// ProbeKind selects the feedback mechanism whose probes are inlined at
// compile time. It deliberately mirrors the instrument package's
// feedback set; the lowering from instrument.Feedback lives there (see
// instrument.CompiledFor) so this package stays independent of it.
type ProbeKind int

// Probe kinds.
const (
	// ProbeNone compiles an uninstrumented program (the NullTracer
	// analogue).
	ProbeNone ProbeKind = iota
	// ProbeEdge inlines exact global-edge-ID hit counts (pcguard).
	ProbeEdge
	// ProbePath inlines Ball-Larus path-register increments and
	// record-at-termination probes (the paper's feedback); Spec.Path2
	// and FnSpec.Edge select its 2-gram and selective variants.
	ProbePath
	// ProbePathAFL inlines edge counts plus the pruned whole-program
	// path-hash segments of the PathAFL-like feedback.
	ProbePathAFL
)

// FnSpec is the per-function instrumentation plan a Spec carries. Which
// fields are meaningful depends on the Spec's Kind.
type FnSpec struct {
	// Salt is the function's stable pseudo-random identifier
	// (ProbePath, ProbePathAFL).
	Salt uint32
	// Base offsets the function's first edge in the global edge ID
	// space (ProbeEdge, ProbePathAFL, an Edge function under
	// ProbePath).
	Base uint32
	// Tracked marks functions included in the whole-program path hash
	// (ProbePathAFL's partial instrumentation).
	Tracked bool
	// HashMode marks functions whose acyclic path count overflowed;
	// they fall back to a rolling hash over edge indices (ProbePath).
	HashMode bool
	// Edge switches a ProbePath function to edge probes at Base+edge
	// with no path register (the selective feedback's per-function
	// choice).
	Edge bool
	// EdgeInc, Back, and RetInc are the Ball-Larus runtime plan
	// (ProbePath, non-hash mode).
	EdgeInc []int64
	Back    map[int]balllarus.BackAction
	RetInc  []int64
}

// Spec is a compile-time instrumentation specification: everything the
// compiler needs to inline one feedback mechanism's probes.
type Spec struct {
	Kind ProbeKind
	// Path2 makes every ProbePath record also write the hashed 2-gram
	// of the activation's previous path and this one (the 2-grams of
	// paths feedback).
	Path2 bool
	// Segment bounds hashed path-segment length for ProbePathAFL.
	Segment int
	// Opt is ignored: every program lowers one way.
	//
	// Deprecated: the optimization passes are deleted. The field stays
	// only for the campaign benchmark, which still sets it.
	Opt bool
	// Fns has one entry per program function.
	Fns []FnSpec
}

// Opcodes. The order is semantic: every opcode below opStepChk was
// lowered from a cfg.Instr and is charged one step by the reference
// interpreter, so the dispatch loop does step accounting for exactly
// the range [0, opStepChk). Everything from opStepChk on is control
// flow or instrumentation and runs free of per-instruction accounting
// (opStepChk itself implements the interpreter's per-block charge).
const (
	opConst  uint8 = iota // dst = imm
	opStr                 // dst = new array holding strs[imm]
	opMove                // dst = slot a
	opAdd                 // dst = a + b
	opSub                 // dst = a - b
	opMul                 // dst = a * b
	opDiv                 // dst = a / b (checked)
	opMod                 // dst = a % b (checked)
	opBand                // dst = a & b
	opBor                 // dst = a | b
	opBxor                // dst = a ^ b
	opShl                 // dst = a << (b & 63)
	opShr                 // dst = a >> (b & 63)
	opEq                  // dst = a == b, records CmpObs (imm = lang.Kind)
	opNe                  // dst = a != b, records CmpObs
	opLt                  // dst = a < b, records CmpObs
	opLe                  // dst = a <= b, records CmpObs
	opGt                  // dst = a > b, records CmpObs
	opGe                  // dst = a >= b, records CmpObs
	opBadBin              // unknown binary operator: aborts when executed
	opNeg                 // dst = -a
	opNot                 // dst = (a == 0)
	opCompl               // dst = ^a
	opLoad                // dst = heap[a][b] (checked)
	opStore               // heap[a][b] = dst (checked; dst is the value slot)
	opCall                // dst = call fns[imm](argSlots[a : a+b]...)
	opLen                 // dst = len(heap[a]) (checked)
	opAlloc               // dst = handle of fresh zeroed array of a cells (checked)
	opAssert              // crash unless a != 0; dst = 0
	opAbort               // crash: abort called
	opAbs                 // dst = |a|
	opMin                 // dst = min(a, b)
	opMax                 // dst = max(a, b)
	opOut                 // append a to output (capped); dst = 0
	opNop                 // unknown op/builtin: counts a step, does nothing

	// Fused const+ALU superinstructions: a two-slot opConst feeding the
	// next instruction. The head slot carries the constant (dst = the
	// const's slot, imm = its value, a = the variable operand for
	// add/sub); the second slot keeps the original consumer untouched,
	// both for its operands and so the pos table stays per-pc exact.
	// They sit below opStepChk because the head charges the const's
	// step; the handler charges the consumer's step itself.
	opConstEq   // const b; eq dst = a == b
	opConstNe   // const b; ne dst = a != b
	opConstLt   // const b; lt dst = a < b
	opConstLe   // const b; le dst = a <= b
	opConstGt   // const b; gt dst = a > b
	opConstGe   // const b; ge dst = a >= b
	opConstAdd  // const c; add dst = a + c (either operand order)
	opConstSub  // const c; sub dst = a - c
	opConstLoad // const idx; load dst = heap[a][idx] (checked)

	// Compare-and-branch superinstructions: a comparison whose result
	// immediately feeds the block's fused opStepChk+opBr exit. The
	// head is the comparison (so the dispatch header charges its
	// step); the handler then performs the block-exit accounting and
	// branches on the just-computed result. opEqStepBr..opGeStepBr
	// read their operands from the head; the opConst* variants span
	// three live slots (const head, dead compare, dead opStepBr).
	opEqStepBr
	opNeStepBr
	opLtStepBr
	opLeStepBr
	opGtStepBr
	opGeStepBr
	opConstEqStepBr
	opConstNeStepBr
	opConstLtStepBr
	opConstLeStepBr
	opConstGtStepBr
	opConstGeStepBr

	// Operand superinstructions, picked from the opcode pairs the
	// dispatch histogram (TestDispatchHistogram) ranks highest: a
	// constant folded into its multiply, a head group folded into the
	// opMove of its result, a product into the add that reads it, and a
	// length or product into the compare-and-branch that reads it. The
	// head charges its own step in the dispatch header and the handler
	// charges each later constituent's step against that constituent's
	// slot. The consumed opMove, opAdd and compare-and-branch slots stay
	// as they were, and the handler runs them from their own operands
	// (an opMove's source is the group's result, so the handler copies
	// the value it just computed); the len or mul slot before a fused
	// compare carries the compare's truth table (cmpTable) in imm, which
	// neither reads.
	opConstMul      // const c; mul dst = a * c (either operand order)
	opConstMove     // const; move
	opConstAddMove  // const; add; move
	opConstSubMove  // const; sub; move
	opConstMulMove  // const; mul; move
	opConstLoadMove // const; load; move
	opAddMove       // add; move
	opSubMove       // sub; move
	opMulMove       // mul; move
	opBandMove      // band; move
	opBorMove       // bor; move
	opBxorMove      // bxor; move
	opShlMove       // shl; move
	opShrMove       // shr; move
	opLoadMove      // load; move
	opLenMove       // len; move
	opMulAdd        // mul t = a * b; add reading t
	opLenCmpBr      // len t; compare-and-branch reading t (imm = truth table)
	opMulCmpBr      // mul t; compare-and-branch reading t (imm = truth table)
	opConstMulCmpBr // const; mul t; compare-and-branch reading t (mul's imm = truth table)

	// opCallPush is an opCall whose callee's entry instruction is
	// ProbePath's opProbePush: the push happens during the call and
	// the callee is entered one instruction in.
	opCallPush

	// opStepChk is the per-block accounting the interpreter performs
	// after a block's instructions: one step, the timeout check, and
	// the fault-injection hook. It must appear exactly once per
	// lowered block, before its terminator.
	opStepChk
	opJmp // pc = a
	opBr  // pc = (slot a != 0) ? b : dst

	opRet // return slot a (a < 0 means return 0)

	// Probe opcodes: the inlined feedback instrumentation.
	opProbeAdd      // m.Add(uint32(imm))
	opProbePush     // path: push a fresh path register
	opProbeInc      // path: reg += imm
	opProbeBack     // path: record(reg + imm, salt a); reg = backVals[b]
	opProbeRetPath  // path: record(reg + imm, salt a); pop the register
	opProbeBack2    // path2: opProbeBack, also writing the 2-gram
	opProbeRetPath2 // path2: opProbeRetPath, also writing the 2-gram
	opProbeHashEdge // path hash fallback: reg = splitmix64(reg ^ imm)
	opProbePAEnter  // pathafl: fold salt imm into the rolling segment hash
	opProbePAFlush  // pathafl: close the current path segment

	// Fused block-exit superinstructions: opStepChk folded into the
	// terminator (and the single probe between them, when present).
	// Operands are copied from the consumed slots at fuse time; the
	// consumed slots stay in place, dead, so jump targets and the pos
	// table never move. All are ≥ opStepChk: the handlers do the step
	// charge, timeout check, and fault-injection hook themselves, in
	// opStepChk's order.
	opStepBr         // stepchk; br
	opStepJmp        // stepchk; jmp a
	opStepRet        // stepchk; ret a
	opStepAddJmp     // stepchk; m.Add(imm); jmp a
	opStepIncJmp     // stepchk; reg += imm; jmp a
	opStepBackJmp    // stepchk; back(salt a, inc imm, restart b); jmp dst
	opStepRetPathRet // stepchk; retpath(salt a, inc imm); ret b
	opStepFlushRet   // stepchk; paflush; ret a

	// Trampoline superinstructions: a probe folded into its jmp.
	opAddJmp  // m.Add(imm); jmp a
	opIncJmp  // reg += imm; jmp a
	opBackJmp // back(salt a, inc imm, restart b); jmp dst

	// opElide is the patched-out form of opProbeAdd: the coverage-guided
	// tracing planner rewrites a probe to it once the probe's map cell
	// is fully consumed (see Patchable). It does nothing and — like
	// every probe — charges no step, so a patched program's step counts,
	// timeouts, and injected-fault positions are identical to the
	// pristine program's. It sits outside the [opProbeAdd, opProbePAFlush]
	// probe range on purpose: the structural verifier only ever sees
	// pristine code, and Patchable.Verify checks patched code instead.
	opElide
)

// instr is one flat instruction; operand meaning is per-opcode (see the
// opcode comments). The struct is deliberately 24 bytes — the dispatch
// loop is bound by instruction-fetch cache density, so cold payloads
// live in Program side tables instead: source positions (crash reports
// only) in Program.pos, and opProbeBack's restart value in
// Program.backVals.
type instr struct {
	op  uint8
	dst int32
	a   int32
	b   int32
	imm int64
}

// fnInfo is the per-function header of a compiled program.
type fnInfo struct {
	name      string
	entryPC   int32
	frameSize int32
	nparams   int32
	pos       lang.Pos
}

// Program is a compiled program: one flat code array plus the side
// tables the machine needs. It is immutable after Compile and safe to
// share across machines (and goroutines).
type Program struct {
	src  *cfg.Program
	spec Spec
	code []instr
	fns  []fnInfo
	// argSlots is the flattened pool of call-argument slot indices;
	// opCall's a/b fields select a window into it.
	argSlots []int32
	// strCells holds the pre-decoded cell contents of string literals;
	// opStr's imm indexes it.
	strCells [][]int64
	// pos holds the source position of code[i] at pos[i]. It is only
	// consulted on crash paths, keeping the hot code array dense.
	pos []lang.Pos
	// backVals holds opProbeBack's path-register restart values,
	// indexed by the instruction's b field.
	backVals []int64
}

// NumInstrs returns the flat instruction count (probes included).
func (p *Program) NumInstrs() int { return len(p.code) }

// NumNops returns how many instruction slots hold counted nops: the
// lowering of unknown operators, which the interpreter charges a step.
//
// Deprecated: it counted the dead stores the deleted optimizer
// reclaimed and reads 0 on every subject. It stays only for the
// campaign benchmark's compile.nops.
func (p *Program) NumNops() int {
	n := 0
	for i := range p.code {
		if p.code[i].op == opNop {
			n++
		}
	}
	return n
}

// splitmix64 is the 64-bit finalizer shared with the instrument
// package; the differential tests pin the two to identical outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
