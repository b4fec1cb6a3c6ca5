package analysis

import (
	"math"
	"testing"

	"repro/internal/cfg"
)

// diamond builds the classic shape by compiling a source whose CFG is
// entry → (then | else) → join.
func diamond(t *testing.T) *cfg.Func {
	t.Helper()
	prog, err := cfg.Compile(`func main(input) {
		var x = 0;
		if (len(input) > 0) { x = 1; } else { x = 2; }
		return x;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Func("main")
}

func loopFunc(t *testing.T) *cfg.Func {
	t.Helper()
	prog, err := cfg.Compile(`func main(input) {
		var s = 0;
		for (var i = 0; i < 10; i = i + 1) { s = s + i; }
		return s;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Func("main")
}

func TestReversePostorderCoversReachable(t *testing.T) {
	for _, f := range []*cfg.Func{diamond(t), loopFunc(t)} {
		rpo := ReversePostorder(f)
		if len(rpo) != len(f.Blocks) {
			t.Fatalf("%s: rpo has %d blocks, func has %d", f.Name, len(rpo), len(f.Blocks))
		}
		if rpo[0] != 0 {
			t.Fatalf("%s: rpo does not start at entry: %v", f.Name, rpo)
		}
		seen := map[int]bool{}
		for _, b := range rpo {
			if seen[b] {
				t.Fatalf("%s: duplicate block b%d in rpo", f.Name, b)
			}
			seen[b] = true
		}
	}
}

func TestIntervalArithmetic(t *testing.T) {
	if got := addI(Interval{1, 2}, Interval{10, 20}); got != (Interval{11, 22}) {
		t.Fatalf("addI = %v", got)
	}
	if got := addI(Interval{math.MaxInt64 - 1, math.MaxInt64}, Interval{1, 1}); got != topI {
		t.Fatalf("overflowing addI = %v, want top", got)
	}
	if got := negI(Interval{math.MinInt64, 0}); got != topI {
		t.Fatalf("negI of MinInt64 = %v, want top", got)
	}
	if got := mulI(Interval{-3, 4}, Interval{5, 6}); got != (Interval{-18, 24}) {
		t.Fatalf("mulI = %v", got)
	}
	if got := hull(bottomI, Interval{3, 5}); got != (Interval{3, 5}) {
		t.Fatalf("hull with bottom = %v", got)
	}
}

func TestIntervalsPruneConstBranch(t *testing.T) {
	prog, err := cfg.Compile(`func main(input) {
		var n = 10;
		var m = n - 10;
		if (m) { out(1); }
		return m;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	ii := IntervalsOf(f)
	unreached := 0
	for b := range f.Blocks {
		if !ii.Reached[b] {
			unreached++
		}
	}
	if unreached == 0 {
		t.Fatal("interval analysis did not prune the always-false branch")
	}
	feasible := 0
	for _, ok := range ii.EdgeFeasible {
		if ok {
			feasible++
		}
	}
	if feasible == len(f.Edges) {
		t.Fatal("no edge was marked infeasible")
	}
}
