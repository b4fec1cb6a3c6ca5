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

func TestDominators(t *testing.T) {
	f := diamond(t)
	idom := Dominators(f)
	if idom[0] != 0 {
		t.Fatalf("entry idom = %d, want itself", idom[0])
	}
	// The entry dominates every block; no non-entry block dominates the
	// block its sibling branch leads to.
	for b := range f.Blocks {
		if !Dominates(idom, 0, b) {
			t.Fatalf("entry does not dominate b%d", b)
		}
	}
	// Branch arms: two blocks with the same idom (the branching block),
	// neither dominating the other.
	byIdom := map[int][]int{}
	for b := 1; b < len(f.Blocks); b++ {
		byIdom[idom[b]] = append(byIdom[idom[b]], b)
	}
	foundArms := false
	for _, arms := range byIdom {
		if len(arms) >= 2 {
			foundArms = true
			if Dominates(idom, arms[0], arms[1]) || Dominates(idom, arms[1], arms[0]) {
				t.Fatalf("sibling branch arms %v dominate each other", arms)
			}
		}
	}
	if !foundArms {
		t.Fatalf("no sibling arms found in diamond; idom = %v", idom)
	}
}

func TestPostDominators(t *testing.T) {
	f := diamond(t)
	ipdom := PostDominators(f)
	exit := len(f.Blocks)
	if ipdom[exit] != exit {
		t.Fatalf("virtual exit ipdom = %d, want itself", ipdom[exit])
	}
	for b := range f.Blocks {
		if ipdom[b] < 0 {
			t.Fatalf("b%d cannot reach exit in a function with returns", b)
		}
	}
	// Infinite loop: the loop blocks cannot reach the exit.
	prog, err := cfg.Compile(`func main(input) { while (len(input) + 1) { } return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	// All blocks still get a well-defined answer (possibly -1).
	_ = PostDominators(prog.Func("main"))
}

func TestLivenessParamsAndLoop(t *testing.T) {
	f := loopFunc(t)
	liveIn, liveOut := Liveness(f)
	// The loop counter and accumulator must be live around the back
	// edge: some block has them live-out.
	anyLive := 0
	for b := range f.Blocks {
		for s := 0; s < f.FrameSize; s++ {
			if liveOut[b].Has(s) || liveIn[b].Has(s) {
				anyLive++
			}
		}
	}
	if anyLive == 0 {
		t.Fatal("loop function has no live slots at any boundary")
	}
	// Nothing is live out of a return block.
	for b := range f.Blocks {
		if f.Blocks[b].Term.Kind != cfg.TermRet {
			continue
		}
		for s := 0; s < f.FrameSize; s++ {
			if liveOut[b].Has(s) {
				t.Fatalf("slot s%d live out of return block b%d", s, b)
			}
		}
	}
}

func TestReachingDefsParams(t *testing.T) {
	f := diamond(t)
	sites, in, _ := ReachingDefs(f)
	if len(sites) == 0 || sites[0].Index != -1 {
		t.Fatalf("first site should be the parameter entry def, got %+v", sites)
	}
	if !in[0].Has(0) {
		t.Fatal("parameter def does not reach the entry block")
	}
	// The two arm definitions of x both reach the join block.
	xDefs := []int{}
	for i, s := range sites {
		if s.Index >= 0 && s.Block != 0 && f.Blocks[s.Block].Instrs[s.Index].Op == cfg.OpConst {
			xDefs = append(xDefs, i)
		}
	}
	join := -1
	preds := Preds(f)
	for b := range f.Blocks {
		if len(preds[b]) >= 2 && f.Blocks[b].Term.Kind == cfg.TermRet {
			join = b
		}
	}
	if join < 0 {
		t.Fatalf("no join block found")
	}
	reaching := 0
	for _, d := range xDefs {
		if in[join].Has(d) {
			reaching++
		}
	}
	if reaching < 2 {
		t.Fatalf("want both arm defs reaching the join, got %d (sites %v)", reaching, xDefs)
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
