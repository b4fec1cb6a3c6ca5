package interproc

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/subjects"
)

func mustFacts(t *testing.T, src string) *Facts {
	t.Helper()
	prog, err := cfg.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return ForProgram(prog)
}

// branchAt finds the branch fact whose source line matches.
func branchAt(t *testing.T, fs *Facts, fn string, line int) *BranchFact {
	t.Helper()
	fi, ok := fs.Prog.ByName[fn]
	if !ok {
		t.Fatalf("no function %q", fn)
	}
	for i := range fs.Fns[fi].Branches {
		if fs.Fns[fi].Branches[i].Pos.Line == line {
			return &fs.Fns[fi].Branches[i]
		}
	}
	t.Fatalf("no branch fact at %s:%d (have %+v)", fn, line, fs.Fns[fi].Branches)
	return nil
}

func TestTaintDirectByteDependency(t *testing.T) {
	fs := mustFacts(t, `
func main(input) {
    if (len(input) < 4) { return 0; }
    var x = input[1];
    if (x > 10) { return 1; }
    return 2;
}
`)
	lenBr := branchAt(t, fs, "main", 3)
	if !lenBr.Dep || !lenBr.Bytes.Empty() {
		t.Errorf("len branch: want length-only dependency, got dep=%v bytes=%s",
			lenBr.Dep, lenBr.Bytes.String())
	}
	xBr := branchAt(t, fs, "main", 5)
	if !xBr.Dep || !xBr.Bytes.Contains(1) {
		t.Errorf("x branch: want dep on byte 1, got dep=%v bytes=%s", xBr.Dep, xBr.Bytes.String())
	}
	if xBr.Bytes.All || xBr.Bytes.Contains(3) {
		t.Errorf("x branch mask too wide: %s", xBr.Bytes.String())
	}
}

func TestTaintInputIndependentBranch(t *testing.T) {
	fs := mustFacts(t, `
func main(input) {
    var c = 0;
    var i = 0;
    while (i < 4) { c = c + 2; i = i + 1; }
    if (c > 5) { c = c - 1; }
    if (len(input) < 1) { return c; }
    return input[0];
}
`)
	if br := branchAt(t, fs, "main", 6); br.Dep {
		t.Errorf("c branch should be input-independent, got bytes=%s", br.Bytes.String())
	}
	if br := branchAt(t, fs, "main", 5); br.Dep {
		t.Errorf("loop branch should be input-independent, got bytes=%s", br.Bytes.String())
	}
}

func TestTaintInterproceduralFlow(t *testing.T) {
	fs := mustFacts(t, `
func get(input, i) {
    return input[i];
}
func main(input) {
    if (len(input) < 9) { return 0; }
    var v = get(input, 8);
    if (v == 65) { return 1; }
    return 2;
}
`)
	// Context-insensitivity: inside get the index interval is unknown,
	// so the dependency widens to all bytes — but it must be there.
	br := branchAt(t, fs, "main", 8)
	if !br.Dep || br.Bytes.Empty() {
		t.Errorf("call-returned value should be input-dependent, got dep=%v bytes=%s",
			br.Dep, br.Bytes.String())
	}
}

func TestTaintImplicitFlow(t *testing.T) {
	fs := mustFacts(t, `
func main(input) {
    if (len(input) < 2) { return 0; }
    var flag = 0;
    if (input[0] == 65) { flag = 1; }
    if (flag == 1) { return 1; }
    return 0;
}
`)
	// flag is only ever assigned constants; its dependency on input[0]
	// is purely implicit (which assignment executed).
	br := branchAt(t, fs, "main", 6)
	if !br.Dep || !br.Bytes.Contains(0) {
		t.Errorf("implicit flow missed: dep=%v bytes=%s", br.Dep, br.Bytes.String())
	}
}

func TestTaintThroughHeapStore(t *testing.T) {
	fs := mustFacts(t, `
func main(input) {
    if (len(input) < 3) { return 0; }
    var buf = alloc(4);
    buf[0] = input[2];
    var z = buf[0];
    if (z == 9) { return 1; }
    return 0;
}
`)
	br := branchAt(t, fs, "main", 7)
	if !br.Dep || !br.Bytes.Contains(2) {
		t.Errorf("store/load through heap lost taint: dep=%v bytes=%s", br.Dep, br.Bytes.String())
	}
}

func TestTaintRecursionConverges(t *testing.T) {
	fs := mustFacts(t, `
func walk(input, pos, depth) {
    if (depth > 8) { return 0; }
    if (pos >= len(input)) { return 0; }
    if (input[pos] == 40) {
        return 1 + walk(input, pos + 1, depth + 1);
    }
    return 0;
}
func main(input) {
    if (len(input) < 1) { return 0; }
    var d = walk(input, 0, 0);
    if (d > 3) { return 1; }
    return 0;
}
`)
	wi := fs.Prog.ByName["walk"]
	if !fs.CG.Recursive(wi) {
		t.Fatal("walk should be recursive")
	}
	br := branchAt(t, fs, "main", 13)
	if !br.Dep {
		t.Error("recursion depth result should be input-dependent")
	}
}

func TestCmpSkipRatio(t *testing.T) {
	fs := mustFacts(t, `
func main(input) {
    if (len(input) < 1) { return 0; }
    var i = 0;
    var s = 0;
    while (i < 3) { s = s + i; i = i + 1; }
    if (input[0] == 7) { s = s + 1; }
    return s;
}
`)
	indep, total := fs.CmpSkipRatio()
	if total != 3 {
		t.Fatalf("total cmp sites = %d, want 3", total)
	}
	if indep != 1 {
		t.Fatalf("indep cmp sites = %d, want 1 (the loop bound)", indep)
	}
}

func TestLintSeededDefects(t *testing.T) {
	prog, err := cfg.Compile(`
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
`)
	if err != nil {
		t.Fatal(err)
	}
	fds := Lint(ForProgram(prog))
	var checks []string
	for _, fd := range fds {
		checks = append(checks, fd.Check)
	}
	want := []string{"unreachable-func", "input-indep-branch", "cmp-out-of-range"}
	if len(fds) != len(want) {
		t.Fatalf("findings = %v, want checks %v", fds, want)
	}
	for i, w := range want {
		if checks[i] != w {
			t.Errorf("finding %d = %s, want %s (%s)", i, checks[i], w, fds[i])
		}
	}
}

func TestLintSubjectsClean(t *testing.T) {
	for _, s := range subjects.All() {
		prog, err := cfg.Compile(s.Source)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, fd := range Lint(ForProgram(prog)) {
			t.Errorf("%s: unexpected finding: %s", s.Name, fd)
		}
	}
}

func TestFactsDeterministic(t *testing.T) {
	for _, name := range []string{"mp3gain", "cflow", "jq"} {
		s := subjects.Get(name)
		dump := func() string {
			prog, err := cfg.Compile(s.Source)
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			ForProgram(prog).Dump(&b)
			return b.String()
		}
		if a, b := dump(), dump(); a != b {
			t.Errorf("%s: facts dump differs between independent computations", name)
		}
	}
}

func TestForMemoizes(t *testing.T) {
	prog, err := cfg.Compile("func main(input) { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if For(prog, 0) != For(prog, 0) {
		t.Error("For should return the cached instance for the same program")
	}
}

func TestDumpMentionsKeySections(t *testing.T) {
	fs := mustFacts(t, `
func main(input) {
    if (len(input) < 1) { return 0; }
    if (input[0] > 4) { return 1; }
    return 2;
}
`)
	var b bytes.Buffer
	fs.Dump(&b)
	out := b.String()
	for _, want := range []string{"entry: main", "cmp sites:", "func main", "branch b"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
