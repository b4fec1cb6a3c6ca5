package instrument

import "repro/internal/cfg"

// This file exports the cell-index layout of the exact feedbacks for
// coverage cartography (package covmap): the reverse map from coverage
// cells to program meaning needs the same global ID bases the tracers
// and the bytecode lowering use. Nothing here changes instrumentation
// semantics.

// EdgeBases returns, per function, the offset of its edges in the
// global edge ID space used by the edge and pathafl feedbacks: edge e
// of function f writes map cell (EdgeBases(p)[f.ID] + e) & (mapSize-1).
func EdgeBases(p *cfg.Program) []uint32 { return edgeBase(p) }

// BlockBases returns, per function, the offset of its blocks in the
// global block ID space used by the block feedback (function entry
// writes the base itself; edge e writes base + Edges[e].To) and as the
// n-gram feedback's block locations.
func BlockBases(p *cfg.Program) []uint32 { return blockBase(p) }

// NGramDefault returns the n-gram window width the ngram feedback uses
// for this configuration (the withDefaults value), so offline tools
// describe hashed cells with the width that actually ran.
func NGramDefault(c Config) int { return c.withDefaults().NGram }

// PathCellIndex returns the coverage-map cell that a completed
// Ball-Larus path ID of function fnID lands in under the path feedback,
// replicating the tracer's mixing formula and Map.Add's index masking
// (the bytecode lowering uses the same formula, so the three agree).
// mapSize must be the campaign's power-of-two map size.
func PathCellIndex(c Config, fnID int, pathID uint64, mapSize int) uint32 {
	mask := uint32(mapSize - 1)
	salt := fnSalt(fnID)
	if c.Mix == MixHash {
		return uint32(splitmix64(pathID^(uint64(salt)<<32))) & mask
	}
	return (uint32(pathID) ^ salt) & mask
}

// PathAFLTrackedFns reports which functions the pathafl feedback
// instruments with segment hashing (small functions are pruned), using
// the same threshold the tracer applies.
func PathAFLTrackedFns(p *cfg.Program, c Config) []bool {
	c = c.withDefaults()
	tracked := make([]bool, len(p.Funcs))
	for i, f := range p.Funcs {
		tracked[i] = len(f.Blocks) >= c.PathAFLMinBlocks
	}
	return tracked
}
