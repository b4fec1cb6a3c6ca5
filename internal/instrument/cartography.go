package instrument

import "repro/internal/cfg"

// This file exports the cell-index layout of the feedbacks for coverage
// cartography (package covmap): the reverse map from coverage cells to
// program meaning needs the same global ID bases and per-function
// choices the tracers and the bytecode lowering use. Nothing here
// changes instrumentation semantics.

// EdgeBases returns, per function, the offset of its edges in the
// global edge ID space used by the edge and pathafl feedbacks and by
// selective's edge-probed functions: edge e of function f writes map
// cell (EdgeBases(p)[f.ID] + e) & (mapSize-1).
func EdgeBases(p *cfg.Program) []uint32 { return edgeBase(p) }

// PathCellIndex returns the coverage-map cell that a completed
// Ball-Larus path ID of function fnID lands in under the path-probed
// feedbacks, replicating the tracer's mixing formula and Map.Add's
// index masking (the bytecode lowering uses the same formula, so the
// three agree). mapSize must be the campaign's power-of-two map size.
func PathCellIndex(fnID int, pathID uint64, mapSize int) uint32 {
	return (uint32(pathID) ^ fnSalt(fnID)) & uint32(mapSize-1)
}
