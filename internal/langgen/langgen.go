// Package langgen generates random, well-formed MiniC programs for
// property-based testing: parser/printer round-trips, CFG invariants,
// Ball-Larus plan equivalence, and VM determinism are all checked
// against its output.
//
// Generated programs always type-check and always terminate (loops are
// bounded by construction), so failures in downstream packages point at
// real defects rather than generator noise.
package langgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds program shape.
type Config struct {
	// MaxFuncs caps extra (non-main) functions.
	MaxFuncs int
	// MaxStmts caps statements per block.
	MaxStmts int
	// MaxDepth caps statement nesting.
	MaxDepth int
	// MaxExprDepth caps expression nesting.
	MaxExprDepth int
}

// Default returns the configuration used by the test suites.
func Default() Config {
	return Config{MaxFuncs: 3, MaxStmts: 5, MaxDepth: 3, MaxExprDepth: 3}
}

type gen struct {
	rng  *rand.Rand
	cfg  Config
	b    strings.Builder
	vars []string
	// funcs lists generated helper functions with their arities.
	funcs   []string
	nameSeq int
	// inHelper suppresses input-array references (helpers take only
	// scalar parameters).
	inHelper bool
}

// program generates a random MiniC program containing a main(input)
// function. The same rng state always yields the same program. It
// calls prelude's safe_load without defining it, so it compiles only
// after the prelude; Generate joins the two.
func program(rng *rand.Rand, cfg Config) string {
	g := &gen{rng: rng, cfg: cfg}
	nFuncs := rng.Intn(cfg.MaxFuncs + 1)
	for i := 0; i < nFuncs; i++ {
		g.genHelper(i)
	}
	g.genMain()
	return g.b.String()
}

func (g *gen) fresh(prefix string) string {
	g.nameSeq++
	return fmt.Sprintf("%s%d", prefix, g.nameSeq)
}

func (g *gen) genHelper(i int) {
	name := fmt.Sprintf("helper%d", i)
	g.vars = []string{"a", "b"}
	g.inHelper = true
	fmt.Fprintf(&g.b, "func %s(a, b) {\n", name)
	g.genStmts(1, g.cfg.MaxDepth)
	// Helpers must terminate and may not call other helpers (avoiding
	// accidental recursion): the helper list grows only after the body
	// is generated, and expressions inside use only scalars/builtins.
	fmt.Fprintf(&g.b, "    return a + b;\n}\n")
	g.inHelper = false
	g.funcs = append(g.funcs, name)
}

func (g *gen) genMain() {
	g.vars = []string{"input"}
	g.b.WriteString("func main(input) {\n")
	g.vars = append(g.vars, "acc")
	g.b.WriteString("    var acc = 0;\n")
	g.genStmts(1, g.cfg.MaxDepth)
	g.b.WriteString("    return acc;\n}\n")
}

func (g *gen) indent(depth int) {
	for i := 0; i < depth; i++ {
		g.b.WriteString("    ")
	}
}

// genStmts generates a block's statement list. Variables declared
// inside go out of scope when the block closes, mirroring MiniC's
// block scoping, so later statements never reference dead names.
func (g *gen) genStmts(depth, budget int) {
	save := len(g.vars)
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	for i := 0; i < n; i++ {
		g.genStmt(depth, budget)
	}
	g.vars = g.vars[:save]
}

// scalarVar picks an int-valued variable (never "input", which holds an
// array handle).
func (g *gen) scalarVar() string {
	for tries := 0; tries < 8; tries++ {
		v := g.vars[g.rng.Intn(len(g.vars))]
		if v != "input" {
			return v
		}
	}
	return "acc"
}

func (g *gen) genStmt(depth, budget int) {
	choice := g.rng.Intn(10)
	if budget <= 0 && choice >= 5 {
		choice = g.rng.Intn(5) // only non-nesting statements
	}
	switch choice {
	case 0, 1: // var decl
		name := g.fresh("v")
		g.indent(depth)
		fmt.Fprintf(&g.b, "var %s = %s;\n", name, g.expr(g.cfg.MaxExprDepth))
		g.vars = append(g.vars, name)
	case 2, 3, 4: // assignment
		g.indent(depth)
		fmt.Fprintf(&g.b, "%s = %s;\n", g.scalarVar(), g.expr(g.cfg.MaxExprDepth))
	case 5, 6: // if / if-else
		g.indent(depth)
		fmt.Fprintf(&g.b, "if (%s) {\n", g.expr(2))
		g.genStmts(depth+1, budget-1)
		g.indent(depth)
		if g.rng.Intn(2) == 0 {
			g.b.WriteString("} else {\n")
			g.genStmts(depth+1, budget-1)
			g.indent(depth)
		}
		g.b.WriteString("}\n")
	case 7: // bounded for loop
		// The counter is deliberately NOT added to the assignable
		// variable pool: a generated body that reassigned it could
		// make the loop diverge, and generated programs must
		// terminate by construction.
		iv := g.fresh("i")
		g.indent(depth)
		fmt.Fprintf(&g.b, "for (var %s = 0; %s < %d; %s = %s + 1) {\n",
			iv, iv, 1+g.rng.Intn(6), iv, iv)
		g.genStmts(depth+1, budget-1)
		g.indent(depth)
		g.b.WriteString("}\n")
	case 8: // bounded while over the input (main only)
		if g.inHelper {
			g.indent(depth)
			fmt.Fprintf(&g.b, "%s = %s;\n", g.scalarVar(), g.expr(2))
			return
		}
		// As with for-loops, the counter stays out of the assignable
		// pool so the loop always terminates.
		iv := g.fresh("w")
		g.indent(depth)
		fmt.Fprintf(&g.b, "var %s = 0;\n", iv)
		g.indent(depth)
		fmt.Fprintf(&g.b, "while (%s < min(len(input), %d)) {\n", iv, 2+g.rng.Intn(8))
		g.genStmts(depth+1, budget-1)
		g.indent(depth + 1)
		fmt.Fprintf(&g.b, "%s = %s + 1;\n", iv, iv)
		g.indent(depth)
		g.b.WriteString("}\n")
	case 9: // out()
		g.indent(depth)
		fmt.Fprintf(&g.b, "out(%s);\n", g.expr(2))
	}
}

// expr generates a crash-free integer expression (divisions use a
// guarded form, loads are bounds-safe by construction).
func (g *gen) expr(depth int) string {
	if depth <= 0 {
		return g.atom()
	}
	switch g.rng.Intn(9) {
	case 0, 1:
		return g.atom()
	case 2:
		op := []string{"+", "-", "*", "&", "|", "^"}[g.rng.Intn(6)]
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	case 3:
		op := []string{"==", "!=", "<", "<=", ">", ">="}[g.rng.Intn(6)]
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	case 4:
		op := []string{"&&", "||"}[g.rng.Intn(2)]
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	case 5:
		// Guarded division: divisor is |x|+1, never zero.
		return fmt.Sprintf("(%s / (abs(%s) + 1))", g.expr(depth-1), g.expr(depth-1))
	case 6:
		// Bounds-safe input load (main only; helpers have no array).
		if g.inHelper {
			return g.atom()
		}
		return fmt.Sprintf("safe_load(input, %s)", g.expr(depth-1))
	case 7:
		if len(g.funcs) > 0 {
			f := g.funcs[g.rng.Intn(len(g.funcs))]
			return fmt.Sprintf("%s(%s, %s)", f, g.expr(depth-1), g.expr(depth-1))
		}
		return g.atom()
	default:
		un := []string{"-", "!", "~"}[g.rng.Intn(3)]
		return fmt.Sprintf("%s(%s)", un, g.expr(depth-1))
	}
}

func (g *gen) atom() string {
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("%d", g.rng.Intn(256))
	case 1:
		if g.inHelper {
			return g.scalarVar()
		}
		return "len(input)"
	default:
		return g.scalarVar()
	}
}

// prelude returns the helper functions every generated program relies
// on (safe_load guards array accesses).
func prelude() string {
	return `
func safe_load(arr, i) {
    var n = len(arr);
    if (n == 0) { return 0; }
    var j = i % n;
    if (j < 0) { j = j + n; }
    return arr[j];
}
`
}

// Generate returns a complete compilable source (prelude + program).
func Generate(rng *rand.Rand, cfg Config) string {
	return prelude() + program(rng, cfg)
}
