package interproc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/subjects"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/")

// TestDumpGolden pins the complete facts dump for one subject. The dump
// is what `paprof -facts` prints: per-branch dependency byte ranges,
// comparison sites with intervals, per-function path counts, and the
// cmp-site header. Any analysis change that shifts these facts must
// consciously regenerate the golden
// (go test ./internal/analysis/interproc -run DumpGolden -update-golden).
func TestDumpGolden(t *testing.T) {
	sub := subjects.Get("flvmeta")
	if sub == nil {
		t.Fatal("flvmeta subject missing")
	}
	prog, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ForProgram(prog).Dump(&buf)
	got := buf.Bytes()

	path := filepath.Join("testdata", "flvmeta_facts.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("facts dump drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// lintAll reproduces palint's combined diagnostic pipeline: AST+interval
// checks, interprocedural checks, one total order.
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
	fds := analysis.Lint(ast, prog)
	fds = append(fds, Lint(ForProgram(prog))...)
	analysis.SortFindings(fds)
	return fds
}

// TestLintDeterministicOrdering runs the combined lint pipeline twice
// over every benchmark subject plus a defect-seeded program, and
// requires byte-identical diagnostics in a total order (position first,
// then check name). This is the property that makes palint output
// stable across runs and machines.
func TestLintDeterministicOrdering(t *testing.T) {
	// A program that trips all three interprocedural checks plus the
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
    var dbg = 1 - 1;
    if (dbg > 0) { return 8; }
    return gate(mode);
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
		if name == "seeded" && len(a) == 0 {
			t.Error("seeded program produced no findings")
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
