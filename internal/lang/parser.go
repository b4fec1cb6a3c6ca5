package lang

import (
	"errors"
	"fmt"
)

// Parser is a recursive-descent parser for MiniC.
type Parser struct {
	lex  *Lexer
	tok  Token
	peek Token
	errs []error
}

// Parse parses a full MiniC compilation unit. It returns the program and
// any accumulated diagnostics; the program may be partially populated
// when errors are present.
func Parse(src string) (*Program, error) {
	p := &Parser{lex: NewLexer(src)}
	p.tok = p.lex.Next()
	p.peek = p.lex.Next()
	prog := p.parseProgram()
	errs := append(p.lex.Errors(), p.errs...)
	if len(errs) > 0 {
		return prog, errors.Join(errs...)
	}
	return prog, nil
}

func (p *Parser) next() {
	p.tok = p.peek
	p.peek = p.lex.Next()
}

func (p *Parser) errorf(pos Pos, format string, args ...any) {
	// Cap diagnostics so a confused parse does not flood the caller.
	if len(p.errs) < 25 {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (p *Parser) expect(k Kind) Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		return Token{Kind: k, Pos: t.Pos}
	}
	p.next()
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// sync skips tokens until a plausible statement boundary, to recover
// from parse errors.
func (p *Parser) sync() {
	for {
		switch p.tok.Kind {
		case EOF, RBRACE, FUNC:
			return
		case SEMI:
			p.next()
			return
		}
		p.next()
	}
}

func (p *Parser) parseProgram() *Program {
	prog := &Program{}
	for p.tok.Kind != EOF {
		if p.tok.Kind != FUNC {
			p.errorf(p.tok.Pos, "expected 'func' at top level, found %s", p.tok)
			p.next()
			continue
		}
		prog.Funcs = append(prog.Funcs, p.parseFunc())
	}
	return prog
}

func (p *Parser) parseFunc() *FuncDecl {
	pos := p.expect(FUNC).Pos
	name := p.expect(IDENT).Text
	p.expect(LPAREN)
	var params []string
	if p.tok.Kind != RPAREN {
		params = append(params, p.expect(IDENT).Text)
		for p.accept(COMMA) {
			params = append(params, p.expect(IDENT).Text)
		}
	}
	p.expect(RPAREN)
	body := p.parseBlock()
	return &FuncDecl{Pos: pos, Name: name, Params: params, Body: body}
}

func (p *Parser) parseBlock() *BlockStmt {
	pos := p.expect(LBRACE).Pos
	b := &BlockStmt{Pos: pos}
	for p.tok.Kind != RBRACE && p.tok.Kind != EOF {
		before := p.tok
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.tok == before && p.tok.Kind != EOF {
			// No progress: recover.
			p.sync()
		}
	}
	p.expect(RBRACE)
	return b
}

func (p *Parser) parseStmt() Stmt {
	switch p.tok.Kind {
	case VAR:
		s := p.parseVar()
		p.expect(SEMI)
		return s
	case IF:
		return p.parseIf()
	case WHILE:
		return p.parseWhile()
	case FOR:
		return p.parseFor()
	case RETURN:
		pos := p.tok.Pos
		p.next()
		var val Expr
		if p.tok.Kind != SEMI {
			val = p.parseExpr()
		}
		p.expect(SEMI)
		return &ReturnStmt{Pos: pos, Val: val}
	case BREAK:
		pos := p.tok.Pos
		p.next()
		p.expect(SEMI)
		return &BreakStmt{Pos: pos}
	case CONTINUE:
		pos := p.tok.Pos
		p.next()
		p.expect(SEMI)
		return &ContinueStmt{Pos: pos}
	case LBRACE:
		return p.parseBlock()
	default:
		s := p.parseSimpleStmt()
		p.expect(SEMI)
		return s
	}
}

func (p *Parser) parseVar() *VarStmt {
	pos := p.expect(VAR).Pos
	name := p.expect(IDENT).Text
	var init Expr
	if p.accept(ASSIGN) {
		init = p.parseExpr()
	}
	return &VarStmt{Pos: pos, Name: name, Init: init}
}

// parseSimpleStmt parses an assignment, array store, or expression
// statement (without the trailing semicolon).
func (p *Parser) parseSimpleStmt() Stmt {
	if p.tok.Kind == IDENT {
		switch p.peek.Kind {
		case ASSIGN:
			pos := p.tok.Pos
			name := p.tok.Text
			p.next()
			p.next()
			return &AssignStmt{Pos: pos, Name: name, Val: p.parseExpr()}
		case LBRACK:
			// Could be a store `a[i] = v` or an index expression used as
			// a statement. Parse the index, then decide.
			pos := p.tok.Pos
			name := p.tok.Text
			p.next()
			p.next()
			idx := p.parseExpr()
			p.expect(RBRACK)
			if p.accept(ASSIGN) {
				return &StoreStmt{Pos: pos, Name: name, Idx: idx, Val: p.parseExpr()}
			}
			// A bare a[i]; has no effect, but we allow it as an
			// expression statement (the load can still trap).
			x := Expr(&IndexExpr{Pos: pos, X: &Ident{Pos: pos, Name: name}, Idx: idx})
			x = p.parsePostfix(x)
			return &ExprStmt{Pos: pos, X: x}
		}
	}
	pos := p.tok.Pos
	return &ExprStmt{Pos: pos, X: p.parseExpr()}
}

func (p *Parser) parseIf() *IfStmt {
	pos := p.expect(IF).Pos
	p.expect(LPAREN)
	cond := p.parseExpr()
	p.expect(RPAREN)
	then := p.parseBlock()
	var els Stmt
	if p.accept(ELSE) {
		if p.tok.Kind == IF {
			els = p.parseIf()
		} else {
			els = p.parseBlock()
		}
	}
	return &IfStmt{Pos: pos, Cond: cond, Then: then, Else: els}
}

func (p *Parser) parseWhile() *WhileStmt {
	pos := p.expect(WHILE).Pos
	p.expect(LPAREN)
	cond := p.parseExpr()
	p.expect(RPAREN)
	body := p.parseBlock()
	return &WhileStmt{Pos: pos, Cond: cond, Body: body}
}

func (p *Parser) parseFor() *ForStmt {
	pos := p.expect(FOR).Pos
	p.expect(LPAREN)
	var init Stmt
	if p.tok.Kind != SEMI {
		if p.tok.Kind == VAR {
			init = p.parseVar()
		} else {
			init = p.parseSimpleStmt()
		}
	}
	p.expect(SEMI)
	var cond Expr
	if p.tok.Kind != SEMI {
		cond = p.parseExpr()
	}
	p.expect(SEMI)
	var post Stmt
	if p.tok.Kind != RPAREN {
		post = p.parseSimpleStmt()
	}
	p.expect(RPAREN)
	body := p.parseBlock()
	return &ForStmt{Pos: pos, Init: init, Cond: cond, Post: post, Body: body}
}

// Operator precedence, loosest first. LAND/LOR are handled separately so
// short-circuiting stays visible to the CFG builder.
func precedence(k Kind) int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case EQ, NE, LT, LE, GT, GE:
		return 3
	case PLUS, MINUS, PIPE, CARET:
		return 4
	case STAR, SLASH, PCT, AMP, SHL, SHR:
		return 5
	}
	return 0
}

func (p *Parser) parseExpr() Expr { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) Expr {
	x := p.parseUnary()
	for {
		prec := precedence(p.tok.Kind)
		if prec < minPrec {
			return x
		}
		op := p.tok.Kind
		pos := p.tok.Pos
		p.next()
		y := p.parseBinary(prec + 1)
		x = &BinaryExpr{Pos: pos, Op: op, X: x, Y: y}
	}
}

func (p *Parser) parseUnary() Expr {
	switch p.tok.Kind {
	case MINUS, NOT, TILDE:
		op := p.tok.Kind
		pos := p.tok.Pos
		p.next()
		return &UnaryExpr{Pos: pos, Op: op, X: p.parseUnary()}
	}
	return p.parsePostfix(p.parsePrimary())
}

func (p *Parser) parsePostfix(x Expr) Expr {
	for p.tok.Kind == LBRACK {
		pos := p.tok.Pos
		p.next()
		idx := p.parseExpr()
		p.expect(RBRACK)
		x = &IndexExpr{Pos: pos, X: x, Idx: idx}
	}
	return x
}

func (p *Parser) parsePrimary() Expr {
	switch p.tok.Kind {
	case INT:
		e := &IntLit{Pos: p.tok.Pos, Val: p.tok.Val}
		p.next()
		return e
	case STR:
		e := &StrLit{Pos: p.tok.Pos, Val: p.tok.Text}
		p.next()
		return e
	case IDENT:
		pos := p.tok.Pos
		name := p.tok.Text
		p.next()
		if p.tok.Kind == LPAREN {
			p.next()
			var args []Expr
			if p.tok.Kind != RPAREN {
				args = append(args, p.parseExpr())
				for p.accept(COMMA) {
					args = append(args, p.parseExpr())
				}
			}
			p.expect(RPAREN)
			return &CallExpr{Pos: pos, Name: name, Args: args}
		}
		return &Ident{Pos: pos, Name: name}
	case LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(RPAREN)
		return e
	default:
		p.errorf(p.tok.Pos, "expected expression, found %s", p.tok)
		pos := p.tok.Pos
		p.next()
		return &IntLit{Pos: pos, Val: 0}
	}
}
