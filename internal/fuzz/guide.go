// Analysis-guided fuzzing (Options.AnalysisGuide): the campaign-side
// consumers of the interprocedural input-dependency facts computed by
// package analysis/interproc. Guided mode is strictly opt-in — with the
// option off none of this state exists and campaigns are byte-identical
// to previous behaviour. Four guidance channels, each degrading
// gracefully when its precondition is absent:
//
//   - Mutation focus: havoc's positional byte mutations are restricted
//     to the dependency byte ranges of the rarest frontier branches the
//     entry sits next to (an input-dependent branch with exactly one
//     explored side). Needs an exact-index feedback (edge, block,
//     pathafl) to invert map indices back to branches.
//   - Power schedule: entries adjacent to statically-input-dependent
//     but unexplored branch sides get up to twice the havoc budget.
//   - Cmplog skip: observed comparisons whose (operator, operand
//     intervals) signature matches only input-independent static sites
//     are skipped — value substitution there is provably fruitless.
//     Works under every feedback.
//   - Dead path cells: under the path feedback, map cells only
//     infeasible path IDs can write are marked consumed from the start,
//     so the CGT engine elides their probes earlier.
//
// All guide state is derived (static facts + virgin map + queue), never
// checkpointed: restore recomputes it exactly as cycle starts do.
package fuzz

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/interproc"
	"repro/internal/cfg"
	"repro/internal/instrument"
	"repro/internal/lang"
	"repro/internal/vm"
)

// maxGuideBranches bounds how many frontier branches contribute byte
// ranges to one entry's mutation mask; the rarest win.
const maxGuideBranches = 4

// guideWarmCycles is how many full queue cycles run before the mutation
// mask engages. In the opening burst almost any mutation finds coverage,
// so spending havoc on the dependency bytes of hard frontier branches
// only slows the campaign down; once the queue has been cycled the easy
// coverage is gone and focusing pays. Cycle counts are part of Stats
// (checkpointed), so the gate is a pure function of campaign state and
// resume-deterministic like the rest of the guide.
const guideWarmCycles = 2

// guideBranch is one statically input-dependent conditional branch
// projected onto the coverage map.
type guideBranch struct {
	// thenIdx/elseIdx are the masked map cells of the branch's two
	// successor sides under the campaign's feedback.
	thenIdx, elseIdx uint32
	// bytes is the full-closure dependency byte set (empty = length-only
	// dependency; All = unbounded). Only bounded non-empty sets can
	// focus mutations, but every branch participates in the frontier
	// weights.
	bytes interproc.ByteSet
	// thenVirgin/elseVirgin are frozen at guide-update boundaries (cycle
	// starts, restore), like the CGT patch plan.
	thenVirgin, elseVirgin bool
}

// guideCmp is the matching signature of one static comparison site.
type guideCmp struct {
	op       lang.Kind
	aIv, bIv analysis.Interval
	dep      bool
}

// guideState carries a guided campaign's derived analysis state.
type guideState struct {
	facts    *interproc.Facts
	branches []guideBranch
	cmps     []guideCmp
	// deadCells are the statically-dead path-feedback map cells ORed
	// into the CGT consumed set at every replan.
	deadCells []uint32
	// w maps coverage-map indices to frontier weights (how many
	// input-dependent unexplored branch sides border an entry covering
	// that index); wMax normalizes the energy boost.
	w    []int
	wMax int
}

// newGuide builds the guide state for a campaign. Branch projection
// needs an exact (non-hashed) index feedback; other feedbacks keep the
// cmplog-skip and dead-cell channels only.
func newGuide(prog *cfg.Program, facts *interproc.Facts, fb instrument.Feedback, mapSize int, ic instrument.Config) *guideState {
	g := &guideState{
		facts:     facts,
		deadCells: instrument.DeadPathCells(fb, facts, ic, mapSize),
	}
	for fi, ff := range facts.Fns {
		if !facts.Reachable[fi] {
			continue
		}
		for i := range ff.Cmps {
			cs := &ff.Cmps[i]
			g.cmps = append(g.cmps, guideCmp{op: cs.Op, aIv: cs.AIv, bIv: cs.BIv, dep: cs.Dep})
		}
	}
	var edgeIndexed bool
	switch fb {
	case instrument.FeedbackEdge, instrument.FeedbackPathAFL:
		edgeIndexed = true
	case instrument.FeedbackBlock:
		edgeIndexed = false
	default:
		return g
	}
	mask := uint32(mapSize - 1)
	var base uint32
	for fi, f := range prog.Funcs {
		ff := facts.Fns[fi]
		if facts.Reachable[fi] {
			for i := range ff.Branches {
				bf := &ff.Branches[i]
				if !bf.Dep {
					continue
				}
				blk := &f.Blocks[bf.Block]
				var ti, ei uint32
				if edgeIndexed {
					if blk.EdgeThen < 0 || blk.EdgeElse < 0 {
						continue
					}
					ti, ei = base+uint32(blk.EdgeThen), base+uint32(blk.EdgeElse)
				} else {
					ti, ei = base+uint32(blk.Term.Then), base+uint32(blk.Term.Else)
				}
				g.branches = append(g.branches, guideBranch{
					thenIdx: ti & mask,
					elseIdx: ei & mask,
					bytes:   bf.Bytes,
				})
			}
		}
		if edgeIndexed {
			base += uint32(len(f.Edges))
		} else {
			base += uint32(len(f.Blocks))
		}
	}
	return g
}

// updateGuide refreshes the virgin-derived guide state. Like replanCGT
// it runs only at deterministic boundaries — cycle starts and restore —
// so guided decisions are a pure function of campaign state there.
func (f *Fuzzer) updateGuide() {
	g := f.guide
	if g == nil {
		return
	}
	if g.w == nil {
		g.w = make([]int, f.cov.Len())
	} else {
		for i := range g.w {
			g.w[i] = 0
		}
	}
	g.wMax = 0
	for i := range g.branches {
		gb := &g.branches[i]
		gb.thenVirgin = f.virgin.Untouched(gb.thenIdx)
		gb.elseVirgin = f.virgin.Untouched(gb.elseIdx)
		// A frontier branch has exactly one explored side; weight lands
		// on the explored cell, so entries covering it get boosted.
		if gb.thenVirgin != gb.elseVirgin {
			covered := gb.thenIdx
			if gb.thenVirgin {
				covered = gb.elseIdx
			}
			g.w[covered]++
			if g.w[covered] > g.wMax {
				g.wMax = g.w[covered]
			}
		}
	}
}

// covHas reports whether the sorted sparse coverage set holds idx.
func covHas(cov []uint32, idx uint32) bool {
	i := sort.Search(len(cov), func(i int) bool { return cov[i] >= idx })
	return i < len(cov) && cov[i] == idx
}

// guideMaskFor computes the mutation byte mask for one queue entry: the
// union of dependency byte ranges of the rarest frontier branches whose
// explored side the entry covers. Rarity is the count of queue entries
// covering that side, so attention rotates to thinly-covered frontiers.
// A nil result (no usable candidate, or an unbounded union) leaves
// mutations unrestricted.
func (f *Fuzzer) guideMaskFor(e *Entry) ([]interproc.ByteRange, int64) {
	g := f.guide
	if g == nil || len(g.branches) == 0 || f.stats.Cycles < guideWarmCycles {
		return nil, 0
	}
	type cand struct {
		rarity int
		order  int
	}
	var cands []cand
	for i := range g.branches {
		gb := &g.branches[i]
		if gb.thenVirgin == gb.elseVirgin {
			continue
		}
		if gb.bytes.All || gb.bytes.Empty() {
			continue
		}
		covered := gb.thenIdx
		if gb.thenVirgin {
			covered = gb.elseIdx
		}
		if !covHas(e.Cov, covered) {
			continue
		}
		cands = append(cands, cand{rarity: f.covCount[covered], order: i})
	}
	if len(cands) == 0 {
		return nil, 0
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rarity != cands[j].rarity {
			return cands[i].rarity < cands[j].rarity
		}
		return cands[i].order < cands[j].order
	})
	if len(cands) > maxGuideBranches {
		cands = cands[:maxGuideBranches]
	}
	var set interproc.ByteSet
	for _, c := range cands {
		set.UnionWith(&g.branches[c.order].bytes)
	}
	if set.All || set.Empty() {
		return nil, 0
	}
	total := set.Count()
	return set.R, total
}

// skipCmp decides whether an observed comparison is provably not worth
// input-to-state substitution: at least one static input-independent
// site matches its (operator, operand-interval) signature and no
// input-dependent site does. Ambiguity defaults to not skipping —
// soundness of the skip follows from dependency over-approximation.
func (g *guideState) skipCmp(obs vm.CmpObs) bool {
	matched := false
	for i := range g.cmps {
		c := &g.cmps[i]
		if c.op != obs.Op || !c.aIv.Contains(obs.A) || !c.bIv.Contains(obs.B) {
			continue
		}
		if c.dep {
			return false
		}
		matched = true
	}
	return matched
}

// noteCov accumulates the per-cell queue coverage counts behind the
// rarity ordering; called wherever entries join the queue (enqueue and
// restore).
func (f *Fuzzer) noteCov(e *Entry) {
	if f.covCount == nil {
		return
	}
	for _, idx := range e.Cov {
		f.covCount[idx]++
	}
}
