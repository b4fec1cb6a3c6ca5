package cfg

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/sema"
)

// Build lowers a parsed and checked program into CFG form. It runs
// semantic analysis itself if the caller has not (calling sema.Check
// twice is harmless), so Build of lang.Parse's result is a complete
// frontend invocation.
func Build(prog *lang.Program) (*Program, error) {
	if err := sema.Check(prog); err != nil {
		return nil, err
	}
	p := &Program{ByName: make(map[string]int)}
	for i, f := range prog.Funcs {
		p.ByName[f.Name] = i
	}
	for i, f := range prog.Funcs {
		lf, err := lowerFunc(f, i, p.ByName)
		if err != nil {
			return nil, err
		}
		p.Funcs = append(p.Funcs, lf)
	}
	return p, nil
}

// Compile parses, checks, and lowers MiniC source in one call.
func Compile(src string) (*Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	p, err := Build(ast)
	if err != nil {
		return nil, err
	}
	p.Source = src
	return p, nil
}

type loopCtx struct {
	breakTo    int
	continueTo int
}

type lowerer struct {
	fd      *lang.FuncDecl
	f       *Func
	byName  map[string]int
	cur     int // current block index; -1 while in dead code
	tempTop int
	maxTemp int
	loops   []loopCtx
}

func lowerFunc(fd *lang.FuncDecl, id int, byName map[string]int) (*Func, error) {
	l := &lowerer{
		fd: fd,
		f: &Func{
			ID:       id,
			Name:     fd.Name,
			NParams:  len(fd.Params),
			NumSlots: fd.NumSlots,
			Pos:      fd.Pos,
		},
		byName: byName,
	}
	l.cur = l.newBlock()
	l.stmt(fd.Body)
	// Fall off the end: implicit `return 0`.
	if l.cur >= 0 {
		l.setTerm(Term{Kind: TermRet, Val: -1, Pos: fd.Pos})
	}
	l.f.FrameSize = l.f.NumSlots + l.maxTemp
	pruneUnreachable(l.f)
	if err := analyze(l.f); err != nil {
		return nil, fmt.Errorf("function %s: %w", fd.Name, err)
	}
	return l.f, nil
}

func (l *lowerer) newBlock() int {
	l.f.Blocks = append(l.f.Blocks, Block{Term: Term{Kind: TermRet, Val: -1}, EdgeThen: -1, EdgeElse: -1})
	return len(l.f.Blocks) - 1
}

func (l *lowerer) emit(in Instr) {
	if l.cur < 0 {
		return // dead code after return/break/continue
	}
	b := &l.f.Blocks[l.cur]
	b.Instrs = append(b.Instrs, in)
}

func (l *lowerer) setTerm(t Term) {
	if l.cur < 0 {
		return
	}
	l.f.Blocks[l.cur].Term = t
	l.cur = -1
}

// jumpTo terminates the current block with a jump to target and makes
// target current.
func (l *lowerer) jumpTo(target int, pos lang.Pos) {
	l.setTerm(Term{Kind: TermJmp, Then: target, Pos: pos})
	l.cur = target
}

func (l *lowerer) temp() int {
	s := l.f.NumSlots + l.tempTop
	l.tempTop++
	if l.tempTop > l.maxTemp {
		l.maxTemp = l.tempTop
	}
	return s
}

func (l *lowerer) stmt(s lang.Stmt) {
	savedTemps := l.tempTop
	defer func() { l.tempTop = savedTemps }()
	switch s := s.(type) {
	case *lang.BlockStmt:
		for _, inner := range s.Stmts {
			l.stmt(inner)
		}
	case *lang.VarStmt:
		if s.Init != nil {
			v := l.expr(s.Init)
			l.emit(Instr{Op: OpMove, Pos: s.Pos, Dst: s.Slot, A: v})
		} else {
			l.emit(Instr{Op: OpConst, Pos: s.Pos, Dst: s.Slot, Imm: 0})
		}
	case *lang.AssignStmt:
		v := l.expr(s.Val)
		l.emit(Instr{Op: OpMove, Pos: s.Pos, Dst: s.Slot, A: v})
	case *lang.StoreStmt:
		idx := l.expr(s.Idx)
		val := l.expr(s.Val)
		l.emit(Instr{Op: OpStore, Pos: s.Pos, A: s.Slot, B: idx, C: val})
	case *lang.IfStmt:
		cond := l.expr(s.Cond)
		thenB := l.newBlock()
		var elseB int
		join := l.newBlock()
		if s.Else != nil {
			elseB = l.newBlock()
		} else {
			elseB = join
		}
		l.setTerm(Term{Kind: TermBr, Pos: s.Pos, Cond: cond, Then: thenB, Else: elseB})
		l.cur = thenB
		l.stmt(s.Then)
		if l.cur >= 0 {
			l.setTerm(Term{Kind: TermJmp, Then: join, Pos: s.Pos})
		}
		if s.Else != nil {
			l.cur = elseB
			l.stmt(s.Else)
			if l.cur >= 0 {
				l.setTerm(Term{Kind: TermJmp, Then: join, Pos: s.Pos})
			}
		}
		l.cur = join
	case *lang.WhileStmt:
		header := l.newBlock()
		l.jumpTo(header, s.Pos)
		cond := l.expr(s.Cond)
		body := l.newBlock()
		exit := l.newBlock()
		l.setTerm(Term{Kind: TermBr, Pos: s.Pos, Cond: cond, Then: body, Else: exit})
		l.cur = body
		l.loops = append(l.loops, loopCtx{breakTo: exit, continueTo: header})
		l.stmt(s.Body)
		l.loops = l.loops[:len(l.loops)-1]
		if l.cur >= 0 {
			l.setTerm(Term{Kind: TermJmp, Then: header, Pos: s.Pos}) // back edge
		}
		l.cur = exit
	case *lang.ForStmt:
		if s.Init != nil {
			l.stmt(s.Init)
		}
		header := l.newBlock()
		l.jumpTo(header, s.Pos)
		var cond int
		if s.Cond != nil {
			cond = l.expr(s.Cond)
		} else {
			cond = l.temp()
			l.emit(Instr{Op: OpConst, Pos: s.Pos, Dst: cond, Imm: 1})
		}
		body := l.newBlock()
		post := l.newBlock()
		exit := l.newBlock()
		l.setTerm(Term{Kind: TermBr, Pos: s.Pos, Cond: cond, Then: body, Else: exit})
		l.cur = body
		l.loops = append(l.loops, loopCtx{breakTo: exit, continueTo: post})
		l.stmt(s.Body)
		l.loops = l.loops[:len(l.loops)-1]
		if l.cur >= 0 {
			l.setTerm(Term{Kind: TermJmp, Then: post, Pos: s.Pos})
		}
		l.cur = post
		if s.Post != nil {
			l.stmt(s.Post)
		}
		l.setTerm(Term{Kind: TermJmp, Then: header, Pos: s.Pos}) // back edge
		l.cur = exit
	case *lang.ReturnStmt:
		val := -1
		if s.Val != nil {
			val = l.expr(s.Val)
		}
		l.setTerm(Term{Kind: TermRet, Pos: s.Pos, Val: val})
	case *lang.BreakStmt:
		l.setTerm(Term{Kind: TermJmp, Pos: s.Pos, Then: l.loops[len(l.loops)-1].breakTo})
	case *lang.ContinueStmt:
		l.setTerm(Term{Kind: TermJmp, Pos: s.Pos, Then: l.loops[len(l.loops)-1].continueTo})
	case *lang.ExprStmt:
		l.expr(s.X)
	default:
		panic(fmt.Sprintf("cfg: unhandled statement %T", s))
	}
}

// expr lowers an expression, returning the slot holding its value.
// Identifiers return their variable slot directly (safe: MiniC has no
// aliasing of locals); everything else lands in a fresh temporary.
func (l *lowerer) expr(e lang.Expr) int {
	switch e := e.(type) {
	case *lang.IntLit:
		t := l.temp()
		l.emit(Instr{Op: OpConst, Pos: e.Pos, Dst: t, Imm: e.Val})
		return t
	case *lang.StrLit:
		t := l.temp()
		l.emit(Instr{Op: OpStr, Pos: e.Pos, Dst: t, Str: e.Val})
		return t
	case *lang.Ident:
		return e.Slot
	case *lang.IndexExpr:
		arr := l.expr(e.X)
		idx := l.expr(e.Idx)
		t := l.temp()
		l.emit(Instr{Op: OpLoad, Pos: e.Pos, Dst: t, A: arr, B: idx})
		return t
	case *lang.CallExpr:
		args := make([]int, len(e.Args))
		for i, a := range e.Args {
			args[i] = l.expr(a)
		}
		t := l.temp()
		if bid, ok := BuiltinIDs[e.Name]; ok {
			l.emit(Instr{Op: OpBuiltin, Pos: e.Pos, Dst: t, Callee: bid, Args: args})
		} else {
			l.emit(Instr{Op: OpCall, Pos: e.Pos, Dst: t, Callee: l.byName[e.Name], Args: args})
		}
		return t
	case *lang.UnaryExpr:
		x := l.expr(e.X)
		t := l.temp()
		l.emit(Instr{Op: OpUn, Pos: e.Pos, Dst: t, Sub: e.Op, A: x})
		return t
	case *lang.BinaryExpr:
		if e.Op == lang.LAND || e.Op == lang.LOR {
			return l.shortCircuit(e)
		}
		a := l.expr(e.X)
		b := l.expr(e.Y)
		t := l.temp()
		l.emit(Instr{Op: OpBin, Pos: e.Pos, Dst: t, Sub: e.Op, A: a, B: b})
		return t
	default:
		panic(fmt.Sprintf("cfg: unhandled expression %T", e))
	}
}

// shortCircuit lowers && and || into control flow, the same shape a C
// compiler produces at -O0. This matters for the reproduction: boolean
// connectives are a major source of intra-procedural path diversity.
func (l *lowerer) shortCircuit(e *lang.BinaryExpr) int {
	res := l.temp()
	a := l.expr(e.X)
	rhs := l.newBlock()
	short := l.newBlock()
	join := l.newBlock()
	if e.Op == lang.LAND {
		// a != 0 ? evaluate b : result 0
		l.setTerm(Term{Kind: TermBr, Pos: e.Pos, Cond: a, Then: rhs, Else: short})
	} else {
		// a != 0 ? result 1 : evaluate b
		l.setTerm(Term{Kind: TermBr, Pos: e.Pos, Cond: a, Then: short, Else: rhs})
	}
	l.cur = rhs
	b := l.expr(e.Y)
	// Normalise the RHS value to 0/1.
	zero := l.temp()
	l.emit(Instr{Op: OpConst, Pos: e.Pos, Dst: zero, Imm: 0})
	l.emit(Instr{Op: OpBin, Pos: e.Pos, Dst: res, Sub: lang.NE, A: b, B: zero})
	l.setTerm(Term{Kind: TermJmp, Then: join, Pos: e.Pos})
	l.cur = short
	imm := int64(0)
	if e.Op == lang.LOR {
		imm = 1
	}
	l.emit(Instr{Op: OpConst, Pos: e.Pos, Dst: res, Imm: imm})
	l.setTerm(Term{Kind: TermJmp, Then: join, Pos: e.Pos})
	l.cur = join
	return res
}

// pruneUnreachable removes blocks not reachable from the entry and
// remaps terminator targets.
func pruneUnreachable(f *Func) {
	n := len(f.Blocks)
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := f.Blocks[b].Term
		switch t.Kind {
		case TermJmp:
			if !seen[t.Then] {
				seen[t.Then] = true
				stack = append(stack, t.Then)
			}
		case TermBr:
			for _, s := range []int{t.Then, t.Else} {
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
	}
	remap := make([]int, n)
	var kept []Block
	for i := 0; i < n; i++ {
		if seen[i] {
			remap[i] = len(kept)
			kept = append(kept, f.Blocks[i])
		} else {
			remap[i] = -1
		}
	}
	for i := range kept {
		t := &kept[i].Term
		switch t.Kind {
		case TermJmp:
			t.Then = remap[t.Then]
		case TermBr:
			t.Then = remap[t.Then]
			t.Else = remap[t.Else]
		}
	}
	f.Blocks = kept
}
