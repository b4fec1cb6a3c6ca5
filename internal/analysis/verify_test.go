package analysis

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/balllarus"
	"repro/internal/cfg"
	"repro/internal/langgen"
	"repro/internal/subjects"
)

// TestVerifySubjects checks every embedded benchmark subject satisfies
// all IR invariants, including the Ball-Larus numbering.
func TestVerifySubjects(t *testing.T) {
	for _, name := range subjects.Names() {
		sub := subjects.Get(name)
		if err := Verify(sub.MustProgram()); err != nil {
			t.Errorf("subject %s: %v", name, err)
		}
	}
}

// TestVerifyLanggenCorpus runs the verifier (and the dataflow analyses,
// for crash-freedom) over a corpus of generated programs whose CFGs
// exercise nested loops, early returns, and deep branching.
func TestVerifyLanggenCorpus(t *testing.T) {
	cfgGen := langgen.Default()
	for seed := int64(0); seed < 60; seed++ {
		src := langgen.Generate(rand.New(rand.NewSource(seed)), cfgGen)
		prog, err := cfg.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
		}
		if err := Verify(prog); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		for _, f := range prog.Funcs {
			Dominators(f)
			PostDominators(f)
			Liveness(f)
			ReachingDefs(f)
			IntervalsOf(f)
		}
	}
}

// selfLoopFunc hand-builds a CFG with a self-loop (b1 branches to
// itself) — a shape the MiniC lowering never emits but the analyses
// must still handle.
func selfLoopFunc() *cfg.Func {
	return &cfg.Func{
		ID: 0, Name: "selfloop", NParams: 1, NumSlots: 1, FrameSize: 1,
		Blocks: []cfg.Block{
			{Term: cfg.Term{Kind: cfg.TermJmp, Then: 1}, EdgeThen: 0, EdgeElse: -1},
			{Term: cfg.Term{Kind: cfg.TermBr, Cond: 0, Then: 1, Else: 2}, EdgeThen: 1, EdgeElse: 2},
			{Term: cfg.Term{Kind: cfg.TermRet, Val: -1}, EdgeThen: -1, EdgeElse: -1},
		},
		Edges:     []cfg.Edge{{From: 0, To: 1}, {From: 1, To: 1}, {From: 1, To: 2}},
		BackEdge:  []bool{false, true, false},
		LoopDepth: []int{0, 1, 0},
	}
}

func TestVerifyAdversarialShapes(t *testing.T) {
	t.Run("self-loop", func(t *testing.T) {
		f := selfLoopFunc()
		if err := VerifyFunc(f); err != nil {
			t.Fatalf("hand-built self-loop rejected: %v", err)
		}
		idom := Dominators(f)
		if idom[1] != 0 || !Dominates(idom, 1, 1) {
			t.Fatalf("self-loop dominators wrong: %v", idom)
		}
		Liveness(f)
		IntervalsOf(f)
	})

	t.Run("empty-body-function", func(t *testing.T) {
		prog, err := cfg.Compile(`func nop(a) { } func main(input) { nop(0); return 0; }`)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(prog); err != nil {
			t.Fatal(err)
		}
		f := prog.Func("nop")
		if f == nil {
			t.Fatal("nop not compiled")
		}
		Liveness(f)
		if ii := IntervalsOf(f); !ii.Reached[0] {
			t.Fatal("entry of empty function not reached")
		}
	})

	t.Run("multiple-back-edges-one-header", func(t *testing.T) {
		prog, err := cfg.Compile(`func main(input) {
			var i = 0;
			while (i < len(input)) {
				i = i + 1;
				if (i > 3) { continue; }
				i = i + 2;
			}
			return i;
		}`)
		if err != nil {
			t.Fatal(err)
		}
		f := prog.Func("main")
		if n := f.NumBackEdges(); n < 2 {
			t.Fatalf("want >=2 back edges from while+continue, got %d", n)
		}
		if err := Verify(prog); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("nested-loops", func(t *testing.T) {
		prog, err := cfg.Compile(`func main(input) {
			var s = 0;
			for (var i = 0; i < len(input); i = i + 1) {
				for (var j = 0; j < i; j = j + 1) {
					if (input[j] > input[i]) { s = s + 1; } else { s = s - 1; }
				}
			}
			return s;
		}`)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(prog); err != nil {
			t.Fatal(err)
		}
		f := prog.Func("main")
		max := 0
		for _, d := range f.LoopDepth {
			if d > max {
				max = d
			}
		}
		if max < 2 {
			t.Fatalf("nested loops should reach depth >= 2, got %d", max)
		}
	})
}

// corrupt compiles src, applies mutate to main, and asserts VerifyFunc
// rejects it with a diagnostic naming the function, the block, and the
// violated invariant.
func corrupt(t *testing.T, src string, wantSubstr string, mutate func(f *cfg.Func)) {
	t.Helper()
	prog, err := cfg.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	if err := VerifyFunc(f); err != nil {
		t.Fatalf("pre-corruption verify failed: %v", err)
	}
	mutate(f)
	err = VerifyFunc(f)
	if err == nil {
		t.Fatalf("corruption not detected (want %q)", wantSubstr)
	}
	msg := err.Error()
	for _, part := range []string{`func "main"`, "block b", wantSubstr} {
		if !strings.Contains(msg, part) {
			t.Fatalf("diagnostic %q does not contain %q", msg, part)
		}
	}
}

const loopSrc = `func main(input) {
	var s = 0;
	for (var i = 0; i < len(input); i = i + 1) {
		if (input[i] > 61) { s = s + input[i]; }
	}
	return s;
}`

func TestVerifyCatchesCorruption(t *testing.T) {
	t.Run("jump-target-out-of-range", func(t *testing.T) {
		corrupt(t, loopSrc, "out of range", func(f *cfg.Func) {
			for b := range f.Blocks {
				if f.Blocks[b].Term.Kind == cfg.TermJmp {
					f.Blocks[b].Term.Then = len(f.Blocks) + 7
					return
				}
			}
			t.Fatal("no jmp block")
		})
	})
	t.Run("branch-identical-targets", func(t *testing.T) {
		corrupt(t, loopSrc, "identical targets", func(f *cfg.Func) {
			for b := range f.Blocks {
				if f.Blocks[b].Term.Kind == cfg.TermBr {
					f.Blocks[b].Term.Else = f.Blocks[b].Term.Then
					return
				}
			}
			t.Fatal("no br block")
		})
	})
	t.Run("unknown-terminator", func(t *testing.T) {
		corrupt(t, loopSrc, "unknown terminator kind", func(f *cfg.Func) {
			f.Blocks[0].Term.Kind = cfg.TermKind(99)
		})
	})
	t.Run("non-canonical-edge", func(t *testing.T) {
		corrupt(t, loopSrc, "want canonical", func(f *cfg.Func) {
			f.Edges[0].To = (f.Edges[0].To + 1) % len(f.Blocks)
		})
	})
	t.Run("edge-index-mismatch", func(t *testing.T) {
		corrupt(t, loopSrc, "index is", func(f *cfg.Func) {
			for b := range f.Blocks {
				if f.Blocks[b].Term.Kind == cfg.TermBr {
					f.Blocks[b].EdgeThen = f.Blocks[b].EdgeElse
					return
				}
			}
		})
	})
	t.Run("back-edge-flag-flipped", func(t *testing.T) {
		corrupt(t, loopSrc, "back-edge flag", func(f *cfg.Func) {
			for e := range f.BackEdge {
				if f.BackEdge[e] {
					f.BackEdge[e] = false
					return
				}
			}
			t.Fatal("no back edge")
		})
	})
	t.Run("loop-depth-wrong", func(t *testing.T) {
		corrupt(t, loopSrc, "loop depth", func(f *cfg.Func) {
			f.LoopDepth[0]++
		})
	})
	t.Run("unreachable-block", func(t *testing.T) {
		corrupt(t, loopSrc, "unreachable from entry", func(f *cfg.Func) {
			n := len(f.Blocks)
			f.Blocks = append(f.Blocks, cfg.Block{
				Term:     cfg.Term{Kind: cfg.TermJmp, Then: 0},
				EdgeThen: len(f.Edges), EdgeElse: -1,
			})
			f.Edges = append(f.Edges, cfg.Edge{From: n, To: 0})
			f.BackEdge = append(f.BackEdge, false)
			f.LoopDepth = append(f.LoopDepth, 0)
		})
	})
	t.Run("use-before-assignment", func(t *testing.T) {
		corrupt(t, loopSrc, "not definitely assigned", func(f *cfg.Func) {
			// Prepend a read of the last frame slot (an expression temp,
			// never live into the entry block).
			tmp := f.FrameSize - 1
			f.Blocks[0].Instrs = append([]cfg.Instr{
				{Op: cfg.OpMove, Dst: tmp, A: tmp},
			}, f.Blocks[0].Instrs...)
		})
	})
}

// TestPathNumberingChecksCatchTampering corrupts a Ball-Larus encoding
// and plan directly and checks the path-level verification machinery
// (the pieces a broken instrumentation pass would trip) rejects them.
func TestPathNumberingChecksCatchTampering(t *testing.T) {
	prog, err := cfg.Compile(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	v := &verifier{f: f}

	t.Run("val-prefix-sum-broken", func(t *testing.T) {
		enc, err := balllarus.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		// Bump the Val of a non-zero-Val DAG edge: the prefix-sum
		// property no longer holds.
		broke := false
		for i := range enc.Dag {
			if enc.Dag[i].Val > 0 {
				enc.Dag[i].Val++
				broke = true
				break
			}
		}
		if !broke {
			t.Fatal("no DAG edge with nonzero Val (need a branch)")
		}
		if err := v.checkPathCounts(enc); err == nil {
			t.Fatal("tampered Val not detected")
		} else if !strings.Contains(err.Error(), "Ball-Larus numbering violated") {
			t.Fatalf("wrong diagnostic: %v", err)
		}
	})

	t.Run("plan-increment-broken", func(t *testing.T) {
		enc, err := balllarus.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		naive := enc.NaivePlan()
		opt := enc.OptimizedPlan()
		// Corrupt one forward-edge increment in the optimized plan.
		broke := false
		for e := range f.Edges {
			if !f.BackEdge[e] {
				opt.EdgeInc[e] += 3
				broke = true
				break
			}
		}
		if !broke {
			t.Fatal("no forward edge")
		}
		err = v.enumeratePaths(enc, &naive, &opt)
		if err == nil {
			// The corrupted edge might be off every ENTRY→EXIT path only
			// if the CFG were disconnected, which it is not.
			t.Fatal("tampered plan increment not detected")
		}
		if !strings.Contains(err.Error(), "plan records path ID") &&
			!strings.Contains(err.Error(), "outside [0,") {
			t.Fatalf("wrong diagnostic: %v", err)
		}
	})
}
