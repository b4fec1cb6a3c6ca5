package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

const demo = `
func main(input) {
    if (len(input) >= 2 && input[0] == 'G' && input[1] == 'O') {
        abort();
    }
    return len(input);
}
`

func TestCompileAndExecute(t *testing.T) {
	target, err := core.Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	res := target.Execute([]byte("xy"))
	if res.Status != vm.StatusOK || res.Ret != 2 {
		t.Errorf("execute: %v ret=%d", res.Status, res.Ret)
	}
	res = target.Execute([]byte("GO"))
	if res.Status != vm.StatusCrash || res.Crash.Kind != vm.KindAbort {
		t.Errorf("crash input: %v", res.Status)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := core.Compile("func f(a) { return a; }"); err == nil || !strings.Contains(err.Error(), "main") {
		t.Errorf("missing main not diagnosed: %v", err)
	}
	if _, err := core.Compile("nonsense"); err == nil {
		t.Error("parse error not surfaced")
	}
}

func TestPathReport(t *testing.T) {
	target, err := core.Compile(`
func branchy(a) {
    if (a > 1) { a = a + 1; } else { a = a - 1; }
    if (a > 2) { a = a * 2; } else { a = a * 3; }
    return a;
}
func main(input) { return branchy(len(input)); }
`)
	if err != nil {
		t.Fatal(err)
	}
	stats := target.PathReport()
	if len(stats) != 2 {
		t.Fatalf("%d functions", len(stats))
	}
	for _, ps := range stats {
		if ps.Func == "branchy" {
			if ps.NumPaths != 4 {
				t.Errorf("branchy paths = %d, want 4", ps.NumPaths)
			}
			if ps.HashedFallback {
				t.Error("unexpected hash fallback")
			}
		}
	}
}

func TestPathProfilerFacade(t *testing.T) {
	target, err := core.Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := target.PathProfiler()
	if err != nil {
		t.Fatal(err)
	}
	prof.Profile("main", []byte("zz"), vm.DefaultLimits())
	if len(prof.Counts()) == 0 {
		t.Error("no paths profiled")
	}
}
