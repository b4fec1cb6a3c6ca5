package fuzz

import (
	"sort"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// edgeRunner returns an exec function replaying inputs under exact
// edge instrumentation into m, on the bytecode engine (the compilation
// is cached process-wide).
func edgeRunner(prog *cfg.Program, m *coverage.Map, entry string, limits vm.Limits) func(in []byte) vm.Result {
	cp, _ := instrument.CompiledFor(instrument.FeedbackEdge, prog, instrument.Config{})
	mach := bytecode.NewMachine(cp, m, limits)
	return func(in []byte) vm.Result { return mach.Run(entry, in) }
}

// edgeMapSize returns the smallest power-of-two map that gives every
// CFG edge of prog a collision-free identity.
func edgeMapSize(prog *cfg.Program) int {
	n := prog.NumEdges()
	size := 1
	for size < n {
		size <<= 1
	}
	if size < 64 {
		size = 64
	}
	return size
}

// ShowMap replays a corpus under exact edge instrumentation and returns
// the set of global edge IDs it covers — the afl-showmap analogue used
// by the Table IV coverage study and by corpus minimisation.
func ShowMap(prog *cfg.Program, inputs [][]byte, entry string, limits vm.Limits) map[uint32]bool {
	if entry == "" {
		entry = "main"
	}
	if limits == (vm.Limits{}) {
		limits = vm.DefaultLimits()
	}
	m := coverage.NewMap(edgeMapSize(prog))
	run := edgeRunner(prog, m, entry, limits)
	covered := make(map[uint32]bool)
	for _, in := range inputs {
		m.Reset()
		run(in)
		for _, idx := range m.Indices() {
			covered[idx] = true
		}
	}
	return covered
}

// MinimizeCorpus returns a subset of inputs that preserves the corpus's
// total edge coverage, via the favored-corpus greedy set-cover
// approximation the paper uses as its culling criterion ("more
// efficient than afl-cmin, for equivalent results"). Inputs that crash
// or time out are dropped. The result preserves input order.
func MinimizeCorpus(prog *cfg.Program, inputs [][]byte, entry string, limits vm.Limits) [][]byte {
	if entry == "" {
		entry = "main"
	}
	if limits == (vm.Limits{}) {
		limits = vm.DefaultLimits()
	}
	m := coverage.NewMap(edgeMapSize(prog))
	run := edgeRunner(prog, m, entry, limits)

	type cand struct {
		pos   int
		data  []byte
		cov   []uint32
		score int64
	}
	var cands []cand
	topRated := make(map[uint32]int) // edge id -> index into cands
	for pos, in := range inputs {
		m.Reset()
		res := run(in)
		if res.Status != vm.StatusOK {
			continue
		}
		c := cand{pos: pos, data: in, cov: m.Indices(), score: res.Steps * int64(len(in)+1)}
		ci := len(cands)
		cands = append(cands, c)
		for _, idx := range c.cov {
			if cur, ok := topRated[idx]; !ok || c.score < cands[cur].score {
				topRated[idx] = ci
			}
		}
	}

	indices := make([]uint32, 0, len(topRated))
	for idx := range topRated {
		indices = append(indices, idx)
	}
	sort.Slice(indices, func(i, j int) bool { return indices[i] < indices[j] })

	covered := make(map[uint32]bool, len(indices))
	chosen := make(map[int]bool)
	for _, idx := range indices {
		if covered[idx] {
			continue
		}
		ci := topRated[idx]
		chosen[ci] = true
		for _, i := range cands[ci].cov {
			covered[i] = true
		}
	}

	var out [][]byte
	for ci := range cands {
		if chosen[ci] {
			out = append(out, cands[ci].data)
		}
	}
	return out
}

// StripCrashers removes inputs that crash or time out, as the
// opportunistic strategy requires before handing a pcguard queue to the
// path-aware stage.
func StripCrashers(prog *cfg.Program, inputs [][]byte, entry string, limits vm.Limits) [][]byte {
	if entry == "" {
		entry = "main"
	}
	if limits == (vm.Limits{}) {
		limits = vm.DefaultLimits()
	}
	// Only the status matters; the map just saturates across runs.
	run := edgeRunner(prog, coverage.NewMap(edgeMapSize(prog)), entry, limits)
	var out [][]byte
	for _, in := range inputs {
		if run(in).Status == vm.StatusOK {
			out = append(out, in)
		}
	}
	return out
}

// MinimizeCorpusExact is the afl-cmin-style greedy set cover: it
// repeatedly picks the input covering the most still-uncovered edges.
// The paper reports using the favored-corpus construction
// (MinimizeCorpus) instead because it was "more efficient ... for
// equivalent results"; this function exists to back that comparison
// (see the corpus tests and BenchmarkAblationCullCriterion).
func MinimizeCorpusExact(prog *cfg.Program, inputs [][]byte, entry string, limits vm.Limits) [][]byte {
	if entry == "" {
		entry = "main"
	}
	if limits == (vm.Limits{}) {
		limits = vm.DefaultLimits()
	}
	m := coverage.NewMap(edgeMapSize(prog))
	run := edgeRunner(prog, m, entry, limits)

	type cand struct {
		data []byte
		cov  []uint32
	}
	var cands []cand
	for _, in := range inputs {
		m.Reset()
		res := run(in)
		if res.Status != vm.StatusOK {
			continue
		}
		cands = append(cands, cand{data: in, cov: m.Indices()})
	}
	covered := make(map[uint32]bool)
	taken := make([]bool, len(cands))
	var out [][]byte
	for {
		best, bestGain := -1, 0
		for i, c := range cands {
			if taken[i] {
				continue
			}
			gain := 0
			for _, idx := range c.cov {
				if !covered[idx] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return out
		}
		taken[best] = true
		out = append(out, cands[best].data)
		for _, idx := range cands[best].cov {
			covered[idx] = true
		}
	}
}
