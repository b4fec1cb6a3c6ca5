package analysis

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/subjects"
)

func lintSrc(t *testing.T, src string) []Finding {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return Lint(ast)
}

// badSrc seeds one instance of every defect class Lint reports.
const badSrc = `func helper(a) {
	var unused = 3;
	return a + 1;
}
func main(input) {
	if (len(input) > 3) {
		return helper(len(input));
	}
	return 0;
	out(2);
}`

func TestLintSeededDefects(t *testing.T) {
	findings := lintSrc(t, badSrc)
	for _, f := range findings {
		t.Logf("finding: %s", f)
	}
	want := []struct {
		check, msgPart, fn string
	}{
		{"unused-var", `"unused"`, "helper"},
		{"unreachable", "never falls through", "main"},
	}
	if len(findings) != len(want) {
		t.Fatalf("%d findings on the seeded bad program, want %d", len(findings), len(want))
	}
	for i, w := range want {
		f := findings[i]
		if f.Check != w.check || f.Func != w.fn || !strings.Contains(f.Msg, w.msgPart) {
			t.Errorf("finding %d = %s, want check=%s func=%s msg~%q", i, f, w.check, w.fn, w.msgPart)
		}
	}
}

// TestLintNoFalsePositiveIdioms checks that the idiomatic forms of
// infinite loops and planted aborts (while (1) left by a break,
// assert(0) under a guard) produce no findings.
func TestLintNoFalsePositiveIdioms(t *testing.T) {
	src := `func main(input) {
		var i = 0;
		while (1) {
			if (i >= len(input)) { break; }
			i = i + 1;
		}
		if (len(input) > 90) { assert(0); }
		return i;
	}`
	for _, f := range lintSrc(t, src) {
		t.Errorf("unexpected finding on idiomatic program: %s", f)
	}
}

// TestLintSubjectsClean asserts zero findings across all embedded
// benchmark subjects.
func TestLintSubjectsClean(t *testing.T) {
	for _, name := range subjects.Names() {
		sub := subjects.Get(name)
		ast, err := lang.Parse(sub.Source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range Lint(ast) {
			t.Errorf("false positive on subject %s: %s", name, f)
		}
	}
}
