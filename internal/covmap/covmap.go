// Package covmap is the coverage-cartography subsystem: a deterministic
// reverse index from every coverage map cell to its program meaning,
// per subject × feedback. Edge cells invert exactly through the
// instrument package's global edge ID bases; path cells invert by
// enumerating every Ball-Larus path ID through the tracer's mixing
// formula and decode to exact basic-block sequences via
// balllarus.Encoding.Regenerate. Each function is indexed by the
// probes its feedback gives it: path probes under path and path2, edge
// probes under edge and pathafl, and under selective path probes for
// the functions instrument.SelectivePathFns picks and edge probes for
// the rest. Hashed cells (path 2-grams, pathafl segment hashes,
// hash-mode path functions) are reported honestly as hash buckets,
// never given an invented source location.
//
// The index and every artifact built on it (annotated source report,
// frontier report, coverage-delta attribution) are display-only: they
// are constructed outside the fuzz loop from programs, checkpoints,
// and journals, and can never perturb a campaign.
package covmap

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/balllarus"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/instrument"
)

// Kind classifies what a map cell means.
type Kind int

// Cell meaning kinds. The first two are exact (invertible) meanings;
// the rest are explicitly-marked hash buckets.
const (
	// KindEdge: a specific CFG edge of an edge-probed function.
	KindEdge Kind = iota
	// KindPath: a specific Ball-Larus acyclic path, decodable to its
	// exact block sequence.
	KindPath
	// KindPathHash: a hash-mode path function's rolling-hash bucket
	// (path count exceeded balllarus.MaxPaths; IDs are not numberable).
	KindPathHash
	// KindPathOverflow: the owning function's path space is exactly
	// numbered but too large to enumerate into the index, so the cell
	// cannot be inverted.
	KindPathOverflow
	// KindPath2Gram: a path2 2-gram hash bucket (the hashed pair of two
	// consecutive path cells; any cell can hold one).
	KindPath2Gram
	// KindSegHash: a pathafl pruned-segment hash bucket (16-bit).
	KindSegHash
)

// Exact reports whether the kind carries an invertible program meaning
// (as opposed to an explicitly-marked hash bucket).
func (k Kind) Exact() bool { return k <= KindPath }

func (k Kind) String() string {
	switch k {
	case KindEdge:
		return "edge"
	case KindPath:
		return "path"
	case KindPathHash:
		return "path-hash-bucket"
	case KindPathOverflow:
		return "path-overflow-bucket"
	case KindPath2Gram:
		return "path-2gram-bucket"
	case KindSegHash:
		return "segment-hash-bucket"
	}
	return "?"
}

// Meaning is one program meaning of a map cell. A cell can carry
// several meanings when index masking or hash mixing collide; the
// report layer treats multi-meaning cells as ambiguous, never picking
// a winner silently.
type Meaning struct {
	Kind Kind
	// Fn is the owning function index (-1 for program-wide buckets).
	Fn int
	// Edge indexes Fn's Edges (KindEdge only).
	Edge int
	// PathID is the Ball-Larus path identifier (KindPath only).
	PathID uint64
}

// EnumCapPerFn bounds how many path IDs of one function the index
// enumerates; functions beyond it keep exact runtime feedback but
// resolve as KindPathOverflow buckets.
const EnumCapPerFn = uint64(1) << 16

// EnumCapTotal bounds program-wide path enumeration.
const EnumCapTotal = uint64(1) << 20

// Index is the reverse coverage map of one ⟨program, feedback, map
// size⟩ tuple. Construction is deterministic: cells and meanings come
// out in program order.
type Index struct {
	Prog     *cfg.Program
	Feedback instrument.Feedback
	MapSize  int

	cells [][]Meaning

	// pathFns[fn] marks the functions the feedback gives path probes;
	// every other function has edge probes.
	pathFns []bool
	// Path-probe bookkeeping, per function.
	encs     []*balllarus.Encoding // nil when not path-probed or not encoded
	numPaths []uint64              // 0 when not path-probed or in hash mode
	// HashModeFns lists path-probed functions that fell back to hashed
	// path IDs; OverflowFns lists exactly-numbered ones whose path
	// space exceeded the enumeration caps.
	HashModeFns []int
	OverflowFns []int
	edgeBases   []uint32
	lines       [][]lineRange // [fn][block] source line span
	edgeByPair  []map[int64]int
	// backOut[fn][block] lists the indices of block's outgoing back
	// edges (the CFG's classification, the same one Ball-Larus
	// numbering uses). Decoded acyclic paths stop AT back edges, so the
	// report layer needs these to credit loop latches as covered.
	backOut [][][]int
}

type lineRange struct{ lo, hi int }

// New builds the reverse index for the campaign feedbacks: edge, path,
// pathafl, path2 and selective. mapSize must be a power of two (the
// campaign's coverage map size).
func New(prog *cfg.Program, fb instrument.Feedback, mapSize int) (*Index, error) {
	if mapSize <= 0 || mapSize&(mapSize-1) != 0 {
		return nil, fmt.Errorf("covmap: map size %d is not a positive power of two", mapSize)
	}
	n := len(prog.Funcs)
	ix := &Index{
		Prog:      prog,
		Feedback:  fb,
		MapSize:   mapSize,
		cells:     make([][]Meaning, mapSize),
		pathFns:   make([]bool, n),
		encs:      make([]*balllarus.Encoding, n),
		numPaths:  make([]uint64, n),
		edgeBases: instrument.EdgeBases(prog),
	}
	switch fb {
	case instrument.FeedbackEdge, instrument.FeedbackPathAFL:
		// Every function has edge probes.
	case instrument.FeedbackPath, instrument.FeedbackPath2:
		for fi := range ix.pathFns {
			ix.pathFns[fi] = true
		}
	case instrument.FeedbackSelective:
		ix.pathFns = instrument.SelectivePathFns(prog)
	default:
		return nil, fmt.Errorf("covmap: no cartography for feedback %v", fb)
	}
	ix.buildLines()
	ix.buildEdgeMeta()
	mask := uint32(mapSize - 1)
	var total uint64
	for fi, f := range prog.Funcs {
		if !ix.pathFns[fi] {
			for e := range f.Edges {
				ix.add((ix.edgeBases[fi]+uint32(e))&mask, Meaning{Kind: KindEdge, Fn: fi, Edge: e})
			}
			continue
		}
		enc, err := balllarus.Encode(f)
		if err != nil {
			// The tracer falls back to a rolling hash for this
			// function; its cells are buckets, never decodable.
			ix.HashModeFns = append(ix.HashModeFns, fi)
			continue
		}
		ix.encs[fi] = enc
		ix.numPaths[fi] = enc.NumPaths
		if enc.NumPaths > EnumCapPerFn || total+enc.NumPaths > EnumCapTotal {
			ix.OverflowFns = append(ix.OverflowFns, fi)
			continue
		}
		total += enc.NumPaths
		for id := uint64(0); id < enc.NumPaths; id++ {
			ix.add(instrument.PathCellIndex(fi, id, mapSize), Meaning{Kind: KindPath, Fn: fi, Edge: -1, PathID: id})
		}
	}
	return ix, nil
}

// pathMode classifies a function's path probes for the report layer:
// "exact" (decodable paths), "hash" (hash-mode fallback), "overflow"
// (numbered beyond the enumeration caps), or "" for an edge-probed
// function.
func (ix *Index) pathMode(fn int) string {
	switch {
	case !ix.pathFns[fn]:
		return ""
	case ix.encs[fn] == nil:
		return "hash"
	case slices.Contains(ix.OverflowFns, fn):
		return "overflow"
	}
	return "exact"
}

func (ix *Index) add(cell uint32, m Meaning) {
	for _, have := range ix.cells[cell] {
		if have == m {
			return
		}
	}
	ix.cells[cell] = append(ix.cells[cell], m)
}

// buildLines precomputes per-block source line spans from instruction
// and terminator positions (0 when a block carries no position).
func (ix *Index) buildLines() {
	ix.lines = make([][]lineRange, len(ix.Prog.Funcs))
	for fi, f := range ix.Prog.Funcs {
		ix.lines[fi] = make([]lineRange, len(f.Blocks))
		for bi, b := range f.Blocks {
			lr := lineRange{}
			note := func(line int) {
				if line <= 0 {
					return
				}
				if lr.lo == 0 || line < lr.lo {
					lr.lo = line
				}
				if line > lr.hi {
					lr.hi = line
				}
			}
			for _, in := range b.Instrs {
				note(in.Pos.Line)
			}
			note(b.Term.Pos.Line)
			ix.lines[fi][bi] = lr
		}
	}
}

// Resolve returns every program meaning a cell can carry. The result is
// never empty for a cell the instrumented program can write: exact
// feedbacks return their indexed meanings, hashed feedbacks (and the
// hashed corners of exact ones) return explicitly-marked bucket
// meanings. A nil result means no execution of this program under this
// feedback can set the cell — the caller should report it as
// unresolvable (stale map, wrong subject, or corruption).
func (ix *Index) Resolve(cell uint32) []Meaning {
	if int(cell) >= ix.MapSize {
		return nil
	}
	ms := append([]Meaning(nil), ix.cells[cell]...)
	bucket := func(k Kind) { ms = append(ms, Meaning{Kind: k, Fn: -1, Edge: -1}) }
	// Segment hashes are masked to 16 bits, so every low pathafl cell
	// is also a potential bucket — an honest ambiguity.
	if ix.Feedback == instrument.FeedbackPathAFL && cell < 1<<16 {
		bucket(KindSegHash)
	}
	// Any cell could have been written by a hash-mode function's
	// rolling hash or by an un-enumerated (overflow) function.
	if len(ix.HashModeFns) > 0 {
		bucket(KindPathHash)
	}
	if len(ix.OverflowFns) > 0 {
		bucket(KindPathOverflow)
	}
	// Likewise by any 2-gram of two consecutive paths.
	if ix.Feedback == instrument.FeedbackPath2 {
		bucket(KindPath2Gram)
	}
	return ms
}

// Decode regenerates the exact basic-block sequence of a KindPath
// meaning. Errors wrapping balllarus.ErrPathOutOfRange indicate a stale
// or colliding cell rather than corruption.
func (ix *Index) Decode(m Meaning) ([]balllarus.PathStep, error) {
	if m.Kind != KindPath {
		return nil, fmt.Errorf("covmap: cannot decode %s meaning", m.Kind)
	}
	if m.Fn < 0 || m.Fn >= len(ix.encs) || ix.encs[m.Fn] == nil {
		return nil, fmt.Errorf("covmap: function %d has no path encoding", m.Fn)
	}
	return ix.encs[m.Fn].Regenerate(m.PathID)
}

// NumPaths returns the Ball-Larus path count of a path-probed function
// (0 when hash-mode or edge-probed).
func (ix *Index) NumPaths(fn int) uint64 {
	if fn < 0 || fn >= len(ix.numPaths) {
		return 0
	}
	return ix.numPaths[fn]
}

// BlockLines returns the source line span of a block (ok=false when the
// block carries no source positions).
func (ix *Index) BlockLines(fn, block int) (lo, hi int, ok bool) {
	if fn < 0 || fn >= len(ix.lines) || block < 0 || block >= len(ix.lines[fn]) {
		return 0, 0, false
	}
	lr := ix.lines[fn][block]
	return lr.lo, lr.hi, lr.lo > 0
}

// FuncName returns the function's name ("?" out of range).
func (ix *Index) FuncName(fn int) string {
	if fn < 0 || fn >= len(ix.Prog.Funcs) {
		return "?"
	}
	return ix.Prog.Funcs[fn].Name
}

// buildEdgeMeta eagerly builds the per-function edge lookups: the
// (from,to)→edge-index map and the per-block outgoing-back-edge lists.
// Eager construction keeps the index read-only after New, so concurrent
// report renders (the live /coverage endpoint) need no locking.
func (ix *Index) buildEdgeMeta() {
	ix.edgeByPair = make([]map[int64]int, len(ix.Prog.Funcs))
	ix.backOut = make([][][]int, len(ix.Prog.Funcs))
	for fi, f := range ix.Prog.Funcs {
		m := make(map[int64]int, len(f.Edges))
		back := make([][]int, len(f.Blocks))
		for e, ed := range f.Edges {
			m[int64(ed.From)<<32|int64(ed.To)] = e
			if f.BackEdge[e] {
				back[ed.From] = append(back[ed.From], e)
			}
		}
		ix.edgeByPair[fi] = m
		ix.backOut[fi] = back
	}
}

// edgeIndex returns the index in fn.Edges of the from→to edge (-1 when
// absent).
func (ix *Index) edgeIndex(fn, from, to int) int {
	if e, ok := ix.edgeByPair[fn][int64(from)<<32|int64(to)]; ok {
		return e
	}
	return -1
}

// backEdgesFrom returns the indices of block's outgoing back edges.
func (ix *Index) backEdgesFrom(fn, block int) []int {
	if fn < 0 || fn >= len(ix.backOut) || block < 0 || block >= len(ix.backOut[fn]) {
		return nil
	}
	return ix.backOut[fn][block]
}

// String renders one meaning with its source location, e.g.
// "edge main b2→b5 (line 14)" or "path check#3 b0→b2→b4 (lines 7-12)".
func (ix *Index) String(m Meaning) string {
	switch m.Kind {
	case KindEdge:
		f := ix.Prog.Funcs[m.Fn]
		ed := f.Edges[m.Edge]
		return fmt.Sprintf("edge %s b%d→b%d%s", f.Name, ed.From, ed.To, ix.lineSuffix(m.Fn, ed.To))
	case KindPath:
		steps, err := ix.Decode(m)
		if err != nil {
			return fmt.Sprintf("path %s#%d (decode: %v)", ix.FuncName(m.Fn), m.PathID, err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "path %s#%d ", ix.FuncName(m.Fn), m.PathID)
		lo, hi := 0, 0
		for i, s := range steps {
			if i > 0 {
				b.WriteString("→")
			}
			if s.EnterViaBackEdge {
				b.WriteString("↺")
			}
			fmt.Fprintf(&b, "b%d", s.Block)
			if s.ExitViaBackEdge {
				b.WriteString("↺")
			}
			if l, h, ok := ix.BlockLines(m.Fn, s.Block); ok {
				if lo == 0 || l < lo {
					lo = l
				}
				if h > hi {
					hi = h
				}
			}
		}
		b.WriteString(lineText(lo, hi))
		return b.String()
	case KindPathHash:
		return fmt.Sprintf("path hash bucket (hash-mode fns: %s)", ix.fnList(ix.HashModeFns))
	case KindPathOverflow:
		return fmt.Sprintf("path bucket of un-enumerated fn (%s)", ix.fnList(ix.OverflowFns))
	case KindPath2Gram:
		return "path 2-gram hash bucket"
	case KindSegHash:
		return "pathafl segment hash bucket (16-bit)"
	}
	return m.Kind.String()
}

func (ix *Index) lineSuffix(fn, block int) string {
	lo, hi, ok := ix.BlockLines(fn, block)
	if !ok {
		return ""
	}
	return lineText(lo, hi)
}

func lineText(lo, hi int) string {
	switch {
	case lo == 0:
		return ""
	case lo == hi:
		return fmt.Sprintf(" (line %d)", lo)
	default:
		return fmt.Sprintf(" (lines %d-%d)", lo, hi)
	}
}

// CellLabel renders a one-line label for a cell: its first resolution
// plus an ambiguity count, or "unresolved" for a cell no instrumented
// execution can write. The shape makes it directly usable as a
// journal.CellResolver.
func (ix *Index) CellLabel(cell uint32) string {
	ms := ix.Resolve(cell)
	if len(ms) == 0 {
		return "unresolved"
	}
	s := ix.String(ms[0])
	if len(ms) > 1 {
		s += fmt.Sprintf(" (+%d more)", len(ms)-1)
	}
	return s
}

func (ix *Index) fnList(fns []int) string {
	if len(fns) == 0 {
		return "none"
	}
	names := make([]string, len(fns))
	for i, fn := range fns {
		names[i] = ix.FuncName(fn)
	}
	return strings.Join(names, ",")
}

// Obs is one observed cell: the index plus the hit-count buckets seen
// (AFL bucket bits; 0 when the observation source records presence
// only, e.g. first-discovered cell lists).
type Obs struct {
	Cell    uint32
	Buckets uint8
}

// FromVirgin converts a campaign's final virgin-map cells (what
// checkpoints serialize) into observations: the consumed buckets are
// the complement of the remaining virgin bits. Duplicate cells (a
// fleet's per-worker virgin maps concatenated) merge by ORing their
// observed buckets.
func FromVirgin(cells []coverage.VirginCell) []Obs {
	merged := make(map[uint32]uint8, len(cells))
	for _, c := range cells {
		merged[c.Index] |= ^c.Bits
	}
	out := make([]Obs, 0, len(merged))
	for cell, b := range merged {
		out = append(out, Obs{Cell: cell, Buckets: b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// FromCells converts a bare cell list (journal novelty events, corpus
// FirstCells) into presence-only observations, deduplicated and sorted.
func FromCells(cells []uint32) []Obs {
	seen := make(map[uint32]bool, len(cells))
	out := make([]Obs, 0, len(cells))
	for _, c := range cells {
		if !seen[c] {
			seen[c] = true
			out = append(out, Obs{Cell: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}
