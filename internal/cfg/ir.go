// Package cfg lowers checked MiniC ASTs into a control-flow-graph
// intermediate representation: per-function basic blocks of simple
// register (slot) instructions with explicit terminators and an
// enumerated edge set.
//
// The edge set is the contract with the instrumentation layer: every
// feedback mechanism (edge coverage, Ball-Larus path profiling and its
// extensions, PathAFL-like) observes execution exclusively through edge traversals,
// function entries, and returns.
package cfg

import (
	"fmt"
	"strings"

	"repro/internal/lang"
)

// Op enumerates instruction opcodes.
type Op int

// Instruction opcodes.
const (
	OpConst   Op = iota // Dst = Imm
	OpStr               // Dst = new array holding bytes of Str
	OpMove              // Dst = slot A
	OpBin               // Dst = A <Sub> B
	OpUn                // Dst = <Sub> A
	OpLoad              // Dst = A[B]
	OpStore             // A[B] = C
	OpCall              // Dst = call Funcs[Callee](Args...)
	OpBuiltin           // Dst = builtin Callee applied to Args...
	OpNop               // no operation; still charged one step
)

// Builtin identifiers for OpBuiltin's Callee field.
const (
	BLen = iota
	BAlloc
	BAssert
	BAbort
	BAbs
	BMin
	BMax
	BOut
)

// BuiltinIDs maps builtin names to OpBuiltin Callee values.
var BuiltinIDs = map[string]int{
	"len":    BLen,
	"alloc":  BAlloc,
	"assert": BAssert,
	"abort":  BAbort,
	"abs":    BAbs,
	"min":    BMin,
	"max":    BMax,
	"out":    BOut,
}

// Instr is a single non-terminator instruction. Operand slots index the
// executing frame; Sub holds the operator for OpBin/OpUn.
type Instr struct {
	Op   Op
	Pos  lang.Pos
	Dst  int
	A    int
	B    int
	C    int
	Imm  int64
	Sub  lang.Kind
	Str  string
	Args []int
	// Callee: function index (OpCall) or builtin id (OpBuiltin).
	Callee int
}

// TermKind enumerates block terminators.
type TermKind int

// Terminator kinds.
const (
	TermJmp TermKind = iota // unconditional branch to Then
	TermBr                  // branch to Then if slot Cond != 0, else Else
	TermRet                 // return slot Val (or 0 when Val < 0)
)

// Term is a basic-block terminator.
type Term struct {
	Kind TermKind
	Pos  lang.Pos
	Cond int
	Then int
	Else int
	Val  int // return slot; -1 means "return 0"
}

// Block is a basic block: straight-line instructions plus a terminator.
type Block struct {
	Instrs []Instr
	Term   Term

	// EdgeThen and EdgeElse index Func.Edges for the outgoing edges of
	// this block's terminator (-1 when absent). They let the VM report
	// traversed edges in O(1).
	EdgeThen int
	EdgeElse int
}

// Edge is a directed CFG edge between block indices.
type Edge struct {
	From int
	To   int
}

// Func is a lowered function.
type Func struct {
	ID      int // index in Program.Funcs
	Name    string
	NParams int
	// NumSlots counts named local slots (params + vars); FrameSize adds
	// the expression temporaries.
	NumSlots  int
	FrameSize int
	Pos       lang.Pos

	Blocks []Block
	// Edges enumerates the CFG edges in a stable order (block order,
	// Then before Else).
	Edges []Edge
	// BackEdge[i] reports whether Edges[i] is a loop back edge (target
	// on the DFS stack when the edge is first traversed from the entry
	// block).
	BackEdge []bool
	// LoopDepth[b] is the number of natural loops containing block b;
	// used by spanning-tree probe placement as a frequency estimate.
	LoopDepth []int
}

// Entry returns the entry block index (always 0 after pruning).
func (f *Func) Entry() int { return 0 }

// NumBackEdges counts loop back edges.
func (f *Func) NumBackEdges() int {
	n := 0
	for _, b := range f.BackEdge {
		if b {
			n++
		}
	}
	return n
}

// RetBlocks returns the indices of blocks terminated by a return.
func (f *Func) RetBlocks() []int {
	var out []int
	for i := range f.Blocks {
		if f.Blocks[i].Term.Kind == TermRet {
			out = append(out, i)
		}
	}
	return out
}

// Program is a fully lowered MiniC program.
type Program struct {
	Funcs []*Func
	// ByName maps function names to Funcs indices.
	ByName map[string]int
	// Source retains the original text for diagnostics.
	Source string
}

// Func returns the lowered function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	if i, ok := p.ByName[name]; ok {
		return p.Funcs[i]
	}
	return nil
}

// NumEdges returns the total number of CFG edges across all functions.
func (p *Program) NumEdges() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Edges)
	}
	return n
}

// NumBlocks returns the total number of basic blocks across functions.
func (p *Program) NumBlocks() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Blocks)
	}
	return n
}

// String names the terminator kind.
func (k TermKind) String() string {
	switch k {
	case TermJmp:
		return "jmp"
	case TermBr:
		return "br"
	case TermRet:
		return "ret"
	}
	return fmt.Sprintf("term%d", int(k))
}

// String renders the function CFG in a compact textual form, mainly for
// tests and debugging. Each block header carries its predecessor list
// and terminator kind; back edges are marked on the terminator line.
func (f *Func) String() string {
	preds := make([][]int, len(f.Blocks))
	for _, e := range f.Edges {
		preds[e.To] = append(preds[e.To], e.From)
	}
	// back marks rendered (From, To) pairs that are loop back edges.
	back := func(ei int) string {
		if ei >= 0 && ei < len(f.BackEdge) && f.BackEdge[ei] {
			return " ; back"
		}
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "func %s #%d params=%d frame=%d\n", f.Name, f.ID, f.NParams, f.FrameSize)
	for i := range f.Blocks {
		blk := &f.Blocks[i]
		fmt.Fprintf(&b, "  b%d: ; preds=[", i)
		for j, p := range preds[i] {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "b%d", p)
		}
		fmt.Fprintf(&b, "] term=%s\n", blk.Term.Kind)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "    %s\n", in.String())
		}
		switch blk.Term.Kind {
		case TermJmp:
			fmt.Fprintf(&b, "    jmp b%d%s\n", blk.Term.Then, back(blk.EdgeThen))
		case TermBr:
			fmt.Fprintf(&b, "    br s%d ? b%d : b%d%s%s\n",
				blk.Term.Cond, blk.Term.Then, blk.Term.Else, back(blk.EdgeThen), back(blk.EdgeElse))
		case TermRet:
			if blk.Term.Val < 0 {
				b.WriteString("    ret\n")
			} else {
				fmt.Fprintf(&b, "    ret s%d\n", blk.Term.Val)
			}
		}
	}
	return b.String()
}

// String renders one instruction.
func (in *Instr) String() string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("s%d = %d", in.Dst, in.Imm)
	case OpStr:
		return fmt.Sprintf("s%d = %q", in.Dst, in.Str)
	case OpMove:
		return fmt.Sprintf("s%d = s%d", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("s%d = s%d %s s%d", in.Dst, in.A, in.Sub, in.B)
	case OpUn:
		return fmt.Sprintf("s%d = %s s%d", in.Dst, in.Sub, in.A)
	case OpLoad:
		return fmt.Sprintf("s%d = s%d[s%d]", in.Dst, in.A, in.B)
	case OpStore:
		return fmt.Sprintf("s%d[s%d] = s%d", in.A, in.B, in.C)
	case OpCall:
		return fmt.Sprintf("s%d = call #%d %v", in.Dst, in.Callee, in.Args)
	case OpBuiltin:
		return fmt.Sprintf("s%d = builtin#%d %v", in.Dst, in.Callee, in.Args)
	case OpNop:
		return "nop"
	}
	return fmt.Sprintf("op%d", in.Op)
}
