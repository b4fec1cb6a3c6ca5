package interproc_test

import (
	"math/rand"
	"testing"

	"repro/internal/analysis/interproc"
	"repro/internal/cfg"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// branchTracer records, per (function, block), the set of directions a
// conditional branch took during one execution.
type branchTracer struct {
	// dirs[fnName][block] -> 2-bit set: 1 = then taken, 2 = else taken.
	dirs map[string]map[int]int
	// decide[fnName][edge] -> (block, isThen) for branch edges.
	decide map[string]map[int]branchEdge
}

type branchEdge struct {
	block int
	then  bool
}

func newBranchTracer(prog *cfg.Program) *branchTracer {
	bt := &branchTracer{
		dirs:   make(map[string]map[int]int),
		decide: make(map[string]map[int]branchEdge),
	}
	for _, f := range prog.Funcs {
		m := make(map[int]branchEdge)
		for b := range f.Blocks {
			blk := &f.Blocks[b]
			if blk.Term.Kind != cfg.TermBr || blk.Term.Then == blk.Term.Else {
				continue
			}
			if blk.EdgeThen >= 0 {
				m[blk.EdgeThen] = branchEdge{block: b, then: true}
			}
			if blk.EdgeElse >= 0 {
				m[blk.EdgeElse] = branchEdge{block: b, then: false}
			}
		}
		bt.decide[f.Name] = m
	}
	return bt
}

func (bt *branchTracer) Begin()                 { bt.dirs = make(map[string]map[int]int) }
func (bt *branchTracer) EnterFunc(f *cfg.Func)  {}
func (bt *branchTracer) Ret(f *cfg.Func, b int) {}
func (bt *branchTracer) Edge(f *cfg.Func, e int) {
	be, ok := bt.decide[f.Name][e]
	if !ok {
		return
	}
	m := bt.dirs[f.Name]
	if m == nil {
		m = make(map[int]int)
		bt.dirs[f.Name] = m
	}
	if be.then {
		m[be.block] |= 1
	} else {
		m[be.block] |= 2
	}
}

// snapshotDirs deep-copies the recorded direction sets.
func (bt *branchTracer) snapshotDirs() map[string]map[int]int {
	out := make(map[string]map[int]int, len(bt.dirs))
	for fn, m := range bt.dirs {
		c := make(map[int]int, len(m))
		for b, d := range m {
			c[b] = d
		}
		out[fn] = c
	}
	return out
}

// mixedCorpus builds a deterministic corpus for a subject: its seed
// inputs, plus random data, plus randomly mutated seeds.
func mixedCorpus(rng *rand.Rand, seeds [][]byte, n int) [][]byte {
	corpus := append([][]byte{}, seeds...)
	for i := 0; i < n; i++ {
		switch {
		case len(seeds) > 0 && i%2 == 0:
			base := seeds[rng.Intn(len(seeds))]
			mut := append([]byte{}, base...)
			for k := 0; k < 1+rng.Intn(4) && len(mut) > 0; k++ {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
			corpus = append(corpus, mut)
		default:
			buf := make([]byte, rng.Intn(24))
			rng.Read(buf)
			corpus = append(corpus, buf)
		}
	}
	return corpus
}

// TestDependencyBytesSound pins the dependency over-approximation
// fuzz-style: whenever flipping ONE input byte changes some branch's
// runtime outcome (both runs finishing normally), that branch's static
// fact must claim input dependency and its byte set must contain the
// flipped offset (or be unbounded). A violation means the analysis
// under-approximated a dependency, the one direction it must never err
// in: the coverage report's frontier prints these byte sets as the
// bytes that can flip a branch.
func TestDependencyBytesSound(t *testing.T) {
	for _, subName := range []string{"flvmeta", "imginfo"} {
		sub := subjects.Get(subName)
		if sub == nil {
			t.Fatalf("subject %s missing", subName)
		}
		prog, err := sub.Program()
		if err != nil {
			t.Fatal(err)
		}
		fs := interproc.For(prog, prog.ByName["main"])
		bt := newBranchTracer(prog)
		lim := vm.DefaultLimits()
		run := func(in []byte) (map[string]map[int]int, vm.Status) {
			res := vm.Run(prog, "main", in, bt, lim)
			return bt.snapshotDirs(), res.Status
		}

		rng := rand.New(rand.NewSource(11))
		diffs := 0
		for _, base := range mixedCorpus(rng, sub.Seeds, 40) {
			if len(base) == 0 {
				continue
			}
			baseDirs, st := run(base)
			if st != vm.StatusOK {
				continue
			}
			for trial := 0; trial < 6; trial++ {
				pos := rng.Intn(len(base))
				flipped := append([]byte{}, base...)
				flipped[pos] ^= byte(1 << rng.Intn(8))
				gotDirs, st2 := run(flipped)
				if st2 != vm.StatusOK {
					continue
				}
				for fn, blocks := range baseDirs {
					fi, ok := prog.ByName[fn]
					if !ok {
						continue
					}
					ff := fs.Fns[fi]
					for b, d := range blocks {
						d2 := gotDirs[fn][b]
						if d2 == 0 || d == d2 {
							continue // not reached after flip, or same outcome
						}
						diffs++
						bf := ff.Branch(b)
						if bf == nil {
							t.Fatalf("%s: no fact for branch %s b%d whose outcome changed", subName, fn, b)
						}
						if !bf.Dep {
							t.Errorf("%s: flipping byte %d changed branch %s b%d (dirs %d->%d) but the fact says input-independent",
								subName, pos, fn, b, d, d2)
							continue
						}
						if !bf.Bytes.All && !bf.Bytes.Contains(int64(pos)) {
							t.Errorf("%s: flipping byte %d changed branch %s b%d but byte set %s excludes it",
								subName, pos, fn, b, bf.Bytes.String())
						}
					}
				}
			}
		}
		if diffs == 0 {
			t.Fatalf("%s: no byte flip ever changed a branch outcome — the test is vacuous", subName)
		}
		t.Logf("%s: %d branch-outcome changes checked against byte sets", subName, diffs)
	}
}
