package analysis

import (
	"fmt"
	"sort"

	"repro/internal/lang"
)

// Finding is one lint diagnostic.
type Finding struct {
	// Check is the rule that fired: unreachable, unused-var, or (from
	// interproc) unreachable-func.
	Check string
	Func  string
	Pos   lang.Pos
	Msg   string
}

// String formats the finding as line:col: [check] msg (func name).
func (fd Finding) String() string {
	return fmt.Sprintf("%d:%d: [%s] %s (func %s)", fd.Pos.Line, fd.Pos.Col, fd.Check, fd.Msg, fd.Func)
}

// Lint runs palint's intra-procedural checks over one MiniC program's
// AST: statements after one that never falls through (unreachable) and
// variables declared but never read (unused-var). Both checks are
// conservative, and the benchmark subjects produce no finding.
func Lint(ast *lang.Program) []Finding {
	var out []Finding
	for _, fd := range ast.Funcs {
		out = append(out, lintUnreachableStmts(fd)...)
		out = append(out, lintUnusedVars(fd)...)
	}
	SortFindings(out)
	return out
}

// SortFindings puts findings into the canonical diagnostic order:
// position first, then check name, then function, then message. The
// order is total over distinct findings, so any producer — including
// ones that accumulate via map iteration — emits byte-identical output
// across runs. Exported so tools that merge findings from several
// analyses (palint with the interprocedural check) share the order.
func SortFindings(out []Finding) {
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Msg < b.Msg
	})
}

// stmtTerminates reports whether s never falls through to the next
// statement: return/break/continue, an if whose arms both terminate,
// or a call to the never-returning abort builtin.
func stmtTerminates(s lang.Stmt) bool {
	switch s := s.(type) {
	case *lang.ReturnStmt, *lang.BreakStmt, *lang.ContinueStmt:
		return true
	case *lang.ExprStmt:
		if call, ok := s.X.(*lang.CallExpr); ok && call.Name == "abort" {
			return true
		}
	case *lang.IfStmt:
		if s.Else == nil {
			return false
		}
		return blockTerminates(s.Then) && stmtTerminates(s.Else)
	case *lang.BlockStmt:
		return blockTerminates(s)
	}
	return false
}

func blockTerminates(b *lang.BlockStmt) bool {
	for _, s := range b.Stmts {
		if stmtTerminates(s) {
			return true
		}
	}
	return false
}

// lintUnreachableStmts flags statements following a terminating
// statement in the same block (one finding per block, to avoid
// cascades).
func lintUnreachableStmts(fd *lang.FuncDecl) []Finding {
	var out []Finding
	var walkBlock func(b *lang.BlockStmt)
	var walkStmt func(s lang.Stmt)
	walkBlock = func(b *lang.BlockStmt) {
		for i, s := range b.Stmts {
			if stmtTerminates(s) && i+1 < len(b.Stmts) {
				out = append(out, Finding{
					Check: "unreachable",
					Func:  fd.Name,
					Pos:   b.Stmts[i+1].NodePos(),
					Msg:   "unreachable code (preceding statement never falls through)",
				})
				// Still walk the dead region's children, then stop
				// reporting in this block.
				for _, d := range b.Stmts[i+1:] {
					walkStmt(d)
				}
				walkStmt(s)
				return
			}
			walkStmt(s)
		}
	}
	walkStmt = func(s lang.Stmt) {
		switch s := s.(type) {
		case *lang.BlockStmt:
			walkBlock(s)
		case *lang.IfStmt:
			walkBlock(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *lang.WhileStmt:
			walkBlock(s.Body)
		case *lang.ForStmt:
			walkBlock(s.Body)
		}
	}
	walkBlock(fd.Body)
	return out
}

// pureExpr reports whether evaluating e has no observable effect:
// no allocation, no call, no memory access, no faultable operator.
// Only a pure initializer makes deleting an unused declaration
// provably behavior-preserving.
func pureExpr(e lang.Expr) bool {
	switch e := e.(type) {
	case *lang.IntLit:
		return true
	case *lang.Ident:
		return true
	case *lang.UnaryExpr:
		return pureExpr(e.X)
	case *lang.BinaryExpr:
		if e.Op == lang.SLASH || e.Op == lang.PCT {
			return false // may fault on zero divisor
		}
		return pureExpr(e.X) && pureExpr(e.Y)
	}
	return false
}

// lintUnusedVars flags variables that are declared but never read.
// Assignments alone do not count as uses. Parameters are exempt, as
// are names declared more than once in the function (shadowing makes
// name-based attribution ambiguous) and declarations whose initializer
// is impure — `var name = input[pos];` consumes a format byte even if
// the name is never read again, so only effect-free declarations are
// certainly dead.
func lintUnusedVars(fd *lang.FuncDecl) []Finding {
	decls := map[string][]*lang.VarStmt{}
	reads := map[string]bool{}
	params := map[string]bool{}
	for _, p := range fd.Params {
		params[p] = true
	}
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.Ident:
			reads[e.Name] = true
		case *lang.IndexExpr:
			walkExpr(e.X)
			walkExpr(e.Idx)
		case *lang.CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *lang.UnaryExpr:
			walkExpr(e.X)
		case *lang.BinaryExpr:
			walkExpr(e.X)
			walkExpr(e.Y)
		}
	}
	var walkStmt func(s lang.Stmt)
	walkBlock := func(b *lang.BlockStmt) {
		for _, s := range b.Stmts {
			walkStmt(s)
		}
	}
	walkStmt = func(s lang.Stmt) {
		switch s := s.(type) {
		case *lang.VarStmt:
			if !params[s.Name] && (s.Init == nil || pureExpr(s.Init)) {
				decls[s.Name] = append(decls[s.Name], s)
			}
			if s.Init != nil {
				walkExpr(s.Init)
			}
		case *lang.AssignStmt:
			walkExpr(s.Val)
		case *lang.StoreStmt:
			reads[s.Name] = true // indexing reads the array handle
			walkExpr(s.Idx)
			walkExpr(s.Val)
		case *lang.IfStmt:
			walkExpr(s.Cond)
			walkBlock(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *lang.WhileStmt:
			walkExpr(s.Cond)
			walkBlock(s.Body)
		case *lang.ForStmt:
			if s.Init != nil {
				walkStmt(s.Init)
			}
			if s.Cond != nil {
				walkExpr(s.Cond)
			}
			if s.Post != nil {
				walkStmt(s.Post)
			}
			walkBlock(s.Body)
		case *lang.ReturnStmt:
			if s.Val != nil {
				walkExpr(s.Val)
			}
		case *lang.ExprStmt:
			walkExpr(s.X)
		case *lang.BlockStmt:
			walkBlock(s)
		}
	}
	walkBlock(fd.Body)
	var out []Finding
	for name, sites := range decls {
		if len(sites) != 1 || reads[name] {
			continue
		}
		out = append(out, Finding{
			Check: "unused-var",
			Func:  fd.Name,
			Pos:   sites[0].Pos,
			Msg:   fmt.Sprintf("variable %q is declared but never read", name),
		})
	}
	return out
}
