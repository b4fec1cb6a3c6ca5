package analysis

import (
	"math"
	"testing"

	"repro/internal/cfg"
)

func mustProg(t *testing.T, src string) *cfg.Program {
	t.Helper()
	prog, err := cfg.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// retInterval replays block b's instructions from its recorded entry
// state and returns the interval of the value it returns.
func retInterval(ii *Intervals, f *cfg.Func, b int) Interval {
	env := newEnv(f.FrameSize)
	env.copyFrom(&ii.In[b])
	blk := &f.Blocks[b]
	for i := range blk.Instrs {
		ii.stepInstr(&env, &blk.Instrs[i])
	}
	return env.Val[blk.Term.Val]
}

// TestWidenNestedLoops: two nested counting loops grow two slots every
// sweep; without widening the analysis would iterate bound-many times
// (or forever on symbolic bounds). It must terminate quickly and keep a
// sound (containing) interval for the counters.
func TestWidenNestedLoops(t *testing.T) {
	prog := mustProg(t, `
func main(input) {
    var acc = 0;
    var i = 0;
    while (i < 1000000) {
        var j = 0;
        while (j < 1000000) {
            acc = acc + 1;
            j = j + 1;
        }
        i = i + 1;
    }
    return acc;
}`)
	f := prog.Func("main")
	done := make(chan *Intervals, 1)
	go func() { done <- IntervalsOf(f) }()
	ii := <-done // deadline enforced by go test's timeout; widening keeps this instant
	// Soundness: the return block is reached and every feasible exit
	// interval contains the concrete final value of acc (10^12).
	ret := -1
	for b := range f.Blocks {
		if f.Blocks[b].Term.Kind == cfg.TermRet && ii.Reached[b] {
			ret = b
		}
	}
	if ret < 0 {
		t.Fatal("no reached return block")
	}
	iv := retInterval(ii, f, ret)
	if !iv.Contains(1000000 * 1000000) {
		t.Fatalf("widened interval %v excludes the concrete loop result", iv)
	}
}

// TestWidenSaturatingBounds: a loop that doubles a slot overflows any
// finite bound; widening must saturate to ±∞ ends rather than cycle
// through ever-larger bounds, and must not invent a tighter-than-sound
// range.
func TestWidenSaturatingBounds(t *testing.T) {
	prog := mustProg(t, `
func main(input) {
    var x = 1;
    var i = 0;
    while (i < len(input)) {
        x = x * 2;
        i = i + 1;
    }
    return x;
}`)
	f := prog.Func("main")
	ii := IntervalsOf(f)
	ret := -1
	for b := range f.Blocks {
		if f.Blocks[b].Term.Kind == cfg.TermRet && ii.Reached[b] {
			ret = b
		}
	}
	if ret < 0 {
		t.Fatal("no reached return block")
	}
	iv := retInterval(ii, f, ret)
	for _, v := range []int64{1, 2, 1 << 40, math.MaxInt64} {
		if !iv.Contains(v) {
			t.Fatalf("saturated interval %v excludes reachable value %d", iv, v)
		}
	}
}

// TestWidenSparesAcyclicJoins: widening fires only after repeated
// visits, which acyclic code never accumulates — a diamond join must
// keep the precise finite hull of its arms, not jump to ±∞.
func TestWidenSparesAcyclicJoins(t *testing.T) {
	prog := mustProg(t, `
func main(input) {
    var x = 2;
    if (len(input) > 0) { x = 5; }
    return x;
}`)
	f := prog.Func("main")
	ii := IntervalsOf(f)
	ret := -1
	for b := range f.Blocks {
		if f.Blocks[b].Term.Kind == cfg.TermRet && ii.Reached[b] {
			ret = b
		}
	}
	if ret < 0 {
		t.Fatal("no reached return block")
	}
	iv := retInterval(ii, f, ret)
	if !iv.Contains(2) || !iv.Contains(5) {
		t.Fatalf("join interval %v misses an arm value", iv)
	}
	if iv.Lo < 2 || iv.Hi > 5 {
		t.Fatalf("acyclic join lost precision: %v, want within [2,5]", iv)
	}
}
