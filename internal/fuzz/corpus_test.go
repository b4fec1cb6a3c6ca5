package fuzz

import (
	"math/rand"
	"testing"

	"repro/internal/subjects"
	"repro/internal/vm"
)

const corpusProg = `
func main(input) {
    var s = 0;
    if (len(input) < 1) { return 0; }
    if (input[0] > 128) { s = s + 1; } else { s = s + 2; }
    if (len(input) > 4) { s = s * 2; }
    if (len(input) > 1 && input[1] == 'k') { s = s + 9; }
    if (len(input) > 2 && input[2] == 0) { abort(); }
    return s;
}
`

func TestShowMap(t *testing.T) {
	p := compileT(t, corpusProg)
	cov1 := ShowMap(p, [][]byte{{200}}, "main", vm.DefaultLimits())
	cov2 := ShowMap(p, [][]byte{{200}, {1}}, "main", vm.DefaultLimits())
	if len(cov2) <= len(cov1) {
		t.Errorf("adding a branch-flipping input did not grow coverage: %d vs %d", len(cov1), len(cov2))
	}
}

// TestMinimizeCorpusPreservesEdges is the culling-criterion property:
// the minimized corpus must cover exactly the edges the full corpus
// covers (modulo crashing inputs, which are dropped).
func TestMinimizeCorpusPreservesEdges(t *testing.T) {
	p := compileT(t, corpusProg)
	rng := rand.New(rand.NewSource(7))
	var corpus [][]byte
	for i := 0; i < 200; i++ {
		in := make([]byte, 1+rng.Intn(8))
		rng.Read(in)
		corpus = append(corpus, in)
	}
	clean := StripCrashers(p, corpus, "main", vm.DefaultLimits())
	minimized := MinimizeCorpus(p, corpus, "main", vm.DefaultLimits())
	if len(minimized) == 0 {
		t.Fatal("empty minimized corpus")
	}
	if len(minimized) >= len(clean) && len(clean) > 8 {
		t.Errorf("minimization did not shrink: %d -> %d", len(clean), len(minimized))
	}
	full := ShowMap(p, clean, "main", vm.DefaultLimits())
	mini := ShowMap(p, minimized, "main", vm.DefaultLimits())
	for id := range full {
		if !mini[id] {
			t.Fatalf("edge %d lost by minimization", id)
		}
	}
	for id := range mini {
		if !full[id] {
			t.Fatalf("edge %d appeared from nowhere", id)
		}
	}
	t.Logf("corpus %d -> clean %d -> minimized %d (edges %d)", len(corpus), len(clean), len(minimized), len(full))
}

func TestStripCrashers(t *testing.T) {
	p := compileT(t, corpusProg)
	crasher := []byte{1, 2, 0}
	ok := []byte{1, 2, 3}
	out := StripCrashers(p, [][]byte{crasher, ok}, "main", vm.DefaultLimits())
	if len(out) != 1 || string(out[0]) != string(ok) {
		t.Errorf("strip = %q", out)
	}
}

func TestMergeReports(t *testing.T) {
	p := compileT(t, corpusProg)
	mk := func(seed int64) *Report {
		f, err := New(p, Options{Seed: seed, MapSize: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		f.AddSeed([]byte{1, 2, 3})
		f.Fuzz(5000)
		return f.Report()
	}
	a, b := mk(1), mk(2)
	merged := MergeReports(a, b)
	if merged.Stats.Execs != a.Stats.Execs+b.Stats.Execs {
		t.Error("execs not summed")
	}
	if len(merged.Bugs) < len(a.Bugs) || len(merged.Bugs) < len(b.Bugs) {
		t.Error("bug union lost entries")
	}
	if merged.QueueLen != b.QueueLen {
		t.Error("queue not taken from last report")
	}
	if len(MergeReports().Bugs) != 0 {
		t.Error("empty merge")
	}
}

func TestFavoredCorpusCoversQueue(t *testing.T) {
	p := compileT(t, corpusProg)
	f, err := New(p, Options{Seed: 4, MapSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte{1, 2, 3})
	f.Fuzz(20000)
	fav := f.FavoredInputs()
	all := f.QueueInputs()
	if len(fav) == 0 || len(fav) > len(all) {
		t.Fatalf("favored %d of %d", len(fav), len(all))
	}
	// The favored corpus preserves the queue's edge coverage (the
	// culling criterion).
	full := ShowMap(p, all, "main", vm.DefaultLimits())
	mini := ShowMap(p, fav, "main", vm.DefaultLimits())
	for id := range full {
		if !mini[id] {
			t.Errorf("favored corpus lost edge %d", id)
		}
	}
}

// TestMinimizeExactEquivalence backs the paper's §IV claim: the
// favored-corpus approximation and the afl-cmin-style exact greedy
// cover preserve the same edge set, and the approximation is not
// drastically larger.
func TestMinimizeExactEquivalence(t *testing.T) {
	p := compileT(t, corpusProg)
	rng := rand.New(rand.NewSource(13))
	var corpus [][]byte
	for i := 0; i < 300; i++ {
		in := make([]byte, 1+rng.Intn(8))
		rng.Read(in)
		corpus = append(corpus, in)
	}
	approx := MinimizeCorpus(p, corpus, "main", vm.DefaultLimits())
	exact := MinimizeCorpusExact(p, corpus, "main", vm.DefaultLimits())
	covA := ShowMap(p, approx, "main", vm.DefaultLimits())
	covE := ShowMap(p, exact, "main", vm.DefaultLimits())
	if len(covA) != len(covE) {
		t.Fatalf("coverage differs: approx %d edges, exact %d edges", len(covA), len(covE))
	}
	for id := range covE {
		if !covA[id] {
			t.Fatalf("approximation lost edge %d", id)
		}
	}
	if len(approx) > 3*len(exact)+3 {
		t.Errorf("approximation much larger than exact: %d vs %d", len(approx), len(exact))
	}
	t.Logf("corpus %d: approx %d, exact %d inputs (equal %d-edge coverage)",
		len(corpus), len(approx), len(exact), len(covE))
}

// BenchmarkAblationCullCriterion compares the two corpus-minimization
// implementations §IV discusses: the favored-corpus approximation the
// paper (and the cull strategy) uses, vs the afl-cmin-style exact
// greedy set cover, on 256 mutants of gdk's seeds.
func BenchmarkAblationCullCriterion(b *testing.B) {
	sub := subjects.Get("gdk")
	prog := sub.MustProgram()
	rng := rand.New(rand.NewSource(42))
	var corpus [][]byte
	for i := 0; i < 256; i++ {
		in := append([]byte(nil), sub.Seeds[i%len(sub.Seeds)]...)
		for j := 0; j < 1+rng.Intn(4); j++ {
			if len(in) > 0 {
				in[rng.Intn(len(in))] = byte(rng.Intn(256))
			}
		}
		corpus = append(corpus, in)
	}
	b.Run("favored-approx", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(MinimizeCorpus(prog, corpus, "main", vm.DefaultLimits()))
		}
		b.ReportMetric(float64(n), "kept-inputs")
	})
	b.Run("cmin-exact", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(MinimizeCorpusExact(prog, corpus, "main", vm.DefaultLimits()))
		}
		b.ReportMetric(float64(n), "kept-inputs")
	})
}
