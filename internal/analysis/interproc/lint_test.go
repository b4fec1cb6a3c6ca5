package interproc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/subjects"
)

// lintAll reproduces palint's combined diagnostic pipeline: the AST
// checks, the interprocedural check, one total order.
func lintAll(t *testing.T, src string) []analysis.Finding {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	fds := analysis.Lint(ast)
	fds = append(fds, Lint(prog)...)
	analysis.SortFindings(fds)
	return fds
}

func checks(fds []analysis.Finding) []string {
	var out []string
	for _, fd := range fds {
		out = append(out, fd.Check)
	}
	return out
}

// TestLintSeededDefects checks unreachable-func on a program with one
// orphan function, and that palint's full pipeline reports nothing
// else on it: no check decides values, so the out-of-range comparison
// `v == 300` and its dead arm are not findings.
func TestLintSeededDefects(t *testing.T) {
	const src = `
func dead(x) {
    return x + 1;
}
func main(input) {
    var c = 0;
    var i = 0;
    while (i < 4) { c = c + 2; i = i + 1; }
    if (c > 5) { c = c - 1; }
    if (len(input) < 2) { return c; }
    var a = input[0];
    var v = min(max(a, 0), 255);
    if (v == 300) { return 9; }
    return c;
}
`
	prog, err := cfg.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	fds := Lint(prog)
	if got := checks(fds); !slices.Equal(got, []string{"unreachable-func"}) || fds[0].Func != "dead" {
		t.Fatalf("findings = %v, want unreachable-func on dead", fds)
	}
	want := []string{"unreachable-func"}
	if got := checks(lintAll(t, src)); !slices.Equal(got, want) {
		t.Errorf("palint checks = %v, want %v", got, want)
	}
}

func TestLintSubjectsClean(t *testing.T) {
	for _, s := range subjects.All() {
		prog, err := cfg.Compile(s.Source)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, fd := range Lint(prog) {
			t.Errorf("%s: unexpected finding: %s", s.Name, fd)
		}
	}
}

// TestLintDeterministicOrdering runs the combined lint pipeline twice
// over every benchmark subject plus a defect-seeded program, and
// requires byte-identical diagnostics in a total order (position first,
// then check name). This is the property that makes palint output
// stable across runs and machines.
func TestLintDeterministicOrdering(t *testing.T) {
	// A program that trips the interprocedural check plus the
	// intra-procedural ones, so the ordering requirement is exercised on
	// a findings-rich unit, not only on clean subjects.
	const seeded = `
func orphan(x) { return x * 2; }
func gate(m) {
    if (m > 3) { return 1; }
    return 0;
}
func main(input) {
    var mode = 0;
    if (len(input) > 0) { mode = input[0] % 3; }
    if (mode == 7) { return 9; }
    var dbg = 1;
    return gate(mode);
    out(2);
}
`
	units := map[string]string{"seeded": seeded}
	for _, sub := range subjects.All() {
		units[sub.Name] = sub.Source
	}
	for name, src := range units {
		a := lintAll(t, src)
		b := lintAll(t, src)
		ra, rb := renderFindings(a), renderFindings(b)
		if ra != rb {
			t.Errorf("%s: lint output differs between runs:\n%s\nvs\n%s", name, ra, rb)
		}
		for i := 1; i < len(a); i++ {
			p, q := a[i-1], a[i]
			if p.Pos.Line > q.Pos.Line ||
				(p.Pos.Line == q.Pos.Line && p.Pos.Col > q.Pos.Col) ||
				(p.Pos == q.Pos && p.Check > q.Check) {
				t.Errorf("%s: findings out of order at %d: %v before %v", name, i, p, q)
			}
		}
		if name == "seeded" && len(a) != 3 {
			t.Errorf("seeded program produced %d findings, want 3:\n%s", len(a), ra)
		}
	}
}

func renderFindings(fds []analysis.Finding) string {
	var buf bytes.Buffer
	for _, fd := range fds {
		fmt.Fprintf(&buf, "%v\n", fd)
	}
	return buf.String()
}
