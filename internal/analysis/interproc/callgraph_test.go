package interproc

import (
	"slices"
	"testing"

	"repro/internal/cfg"
)

const cgSrc = `
func leaf(x) {
    return x * 2;
}
func a(input, n) {
    if (n < 1) { return 0; }
    return b(input, n - 1) + leaf(n);
}
func b(input, n) {
    if (n < 1) { return 0; }
    return a(input, n - 1);
}
func orphan(x) {
    return x;
}
func main(input) {
    return a(input, len(input));
}
`

func TestCallGraphStructure(t *testing.T) {
	prog, err := cfg.Compile(cgSrc)
	if err != nil {
		t.Fatal(err)
	}
	g := NewCallGraph(prog)
	id := func(name string) int { return prog.ByName[name] }

	// a <-> b is one SCC; it must come before main's (bottom-up order)
	// and after leaf's.
	if g.SCCOf[id("a")] != g.SCCOf[id("b")] {
		t.Error("a and b should share an SCC")
	}
	if g.SCCOf[id("leaf")] >= g.SCCOf[id("a")] {
		t.Error("leaf's SCC should precede the a/b cycle (callee-first)")
	}
	if g.SCCOf[id("a")] >= g.SCCOf[id("main")] {
		t.Error("the a/b cycle should precede main (callee-first)")
	}
	for _, scc := range g.SCCs {
		for _, f := range scc {
			if g.SCCOf[f] != g.SCCOf[scc[0]] {
				t.Error("SCCOf inconsistent with SCCs")
			}
		}
	}

	// a and b are mutually recursive: their component has both. leaf
	// and main are not: each is alone in its component, with no self
	// edge.
	if scc := g.SCCs[g.SCCOf[id("a")]]; !slices.Equal(scc, []int{id("a"), id("b")}) {
		t.Errorf("a's SCC = %v, want [a b]", scc)
	}
	for _, name := range []string{"leaf", "main"} {
		f := id(name)
		if len(g.SCCs[g.SCCOf[f]]) != 1 || slices.Contains(g.Callees[f], f) {
			t.Errorf("%s should not be recursive", name)
		}
	}

	reach := g.ReachableFrom(id("main"))
	for _, name := range []string{"main", "a", "b", "leaf"} {
		if !reach[id(name)] {
			t.Errorf("%s should be reachable from main", name)
		}
	}
	if reach[id("orphan")] {
		t.Error("orphan should be unreachable")
	}

	if !slices.Equal(g.Callees[id("main")], []int{id("a")}) {
		t.Errorf("main's callees = %v, want [a]", g.Callees[id("main")])
	}
}

func TestCallGraphSelfRecursion(t *testing.T) {
	prog, err := cfg.Compile(`
func f(input, n) {
    if (n < 1) { return 0; }
    return f(input, n - 1);
}
func main(input) {
    return f(input, 3);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	g := NewCallGraph(prog)
	f := prog.ByName["f"]
	if !slices.Contains(g.Callees[f], f) {
		t.Errorf("f's callees = %v, want its self edge", g.Callees[f])
	}
	if len(g.SCCs[g.SCCOf[f]]) != 1 {
		t.Errorf("f's SCC = %v, want f alone", g.SCCs[g.SCCOf[f]])
	}
}
