package covmap

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis/interproc"
	"repro/internal/cfg"
)

// Options tunes report construction.
type Options struct {
	// Label names the campaign in report headers (subject/fuzzer).
	Label string
	// Facts, when set, joins the frontier report against interprocedural
	// input-dependency analysis: each frontier branch shows which input
	// bytes govern it.
	Facts *interproc.Facts
}

// maxFrontier caps the rendered frontier rows.
const maxFrontier = 50

// FuncCov is one function's row of the coverage table.
type FuncCov struct {
	Fn                        int
	Name                      string
	BlocksCovered, Blocks     int
	EdgesCovered, Edges       int
	PathsSeen, PathsAmbiguous int
	NumPaths                  uint64
	// PathMode: "exact", "hash", "overflow", or "" for a function
	// with edge probes.
	PathMode string
}

// Line is one annotated source line. Covered: 0 uncovered, 1 possibly
// covered (only via ambiguous cells), 2 definitely covered.
type Line struct {
	No         int
	Text       string
	Executable bool
	Covered    int
	Buckets    uint8
}

// Frontier is one reached-but-unexplored branch.
type Frontier struct {
	Fn             int
	FnName         string
	Block          int
	Line           int
	Unexplored     string // "then" or "else"
	UnexploredLine int
	// Rarity is the AFL hit-bucket class (1-8) of the branch's explored
	// side — lower is rarer; 0 when the observation source records
	// presence only.
	Rarity int
	// Dep describes the input bytes governing the branch per the
	// interproc facts ("" when no facts were supplied).
	Dep string
}

// Report is the rendered cartography of one campaign's coverage.
type Report struct {
	Label    string
	Feedback string
	MapSize  int

	Observed   int
	Resolved   int
	Exact      int
	Ambiguous  int
	BucketOnly int
	Collisions int
	Unresolved []uint32

	Funcs        []FuncCov
	Lines        []Line
	Frontier     []Frontier
	FrontierNote string
}

// coverageSets tracks definite/possible coverage at block and edge
// granularity, globally indexed.
type coverageSets struct {
	defBlock, posBlock [][]bool
	defEdge, posEdge   [][]bool
}

func newCoverageSets(p *cfg.Program) *coverageSets {
	cs := &coverageSets{}
	for _, f := range p.Funcs {
		cs.defBlock = append(cs.defBlock, make([]bool, len(f.Blocks)))
		cs.posBlock = append(cs.posBlock, make([]bool, len(f.Blocks)))
		cs.defEdge = append(cs.defEdge, make([]bool, len(f.Edges)))
		cs.posEdge = append(cs.posEdge, make([]bool, len(f.Edges)))
	}
	return cs
}

func (cs *coverageSets) block(fn, b int, definite bool) {
	cs.posBlock[fn][b] = true
	if definite {
		cs.defBlock[fn][b] = true
	}
}

func (cs *coverageSets) edge(fn, e int, definite bool) {
	cs.posEdge[fn][e] = true
	if definite {
		cs.defEdge[fn][e] = true
	}
}

// BuildReport resolves every observation against the index and renders
// the three cartography artifacts' data: summary counts, per-function
// and per-line coverage, and the frontier.
func (ix *Index) BuildReport(obs []Obs, opt Options) *Report {
	r := &Report{
		Label:    opt.Label,
		Feedback: ix.Feedback.String(),
		MapSize:  ix.MapSize,
	}
	cs := newCoverageSets(ix.Prog)
	// Per-line bucket attribution, filled as meanings resolve.
	lineBuckets := make(map[int]uint8)
	lineCovered := make(map[int]int)
	noteLines := func(fn, block int, buckets uint8, definite bool) {
		lo, hi, ok := ix.BlockLines(fn, block)
		if !ok {
			return
		}
		covered := 1
		if definite {
			covered = 2
		}
		for l := lo; l <= hi; l++ {
			lineBuckets[l] |= buckets
			if covered > lineCovered[l] {
				lineCovered[l] = covered
			}
		}
	}
	pathsSeen := make(map[int]map[uint64]bool)
	pathsAmb := make(map[int]map[uint64]bool)

	for _, o := range obs {
		ms := ix.Resolve(o.Cell)
		if len(ms) == 0 {
			r.Unresolved = append(r.Unresolved, o.Cell)
			continue
		}
		r.Observed++
		r.Resolved++
		exact := 0
		for _, m := range ms {
			if m.Kind.Exact() {
				exact++
			}
		}
		definite := len(ms) == 1
		switch {
		case exact == 0:
			r.BucketOnly++
		case definite:
			r.Exact++
		default:
			r.Ambiguous++
		}
		if exact > 1 {
			r.Collisions++
		}
		for _, m := range ms {
			switch m.Kind {
			case KindEdge:
				ed := ix.Prog.Funcs[m.Fn].Edges[m.Edge]
				cs.edge(m.Fn, m.Edge, definite)
				cs.block(m.Fn, ed.From, definite)
				cs.block(m.Fn, ed.To, definite)
				noteLines(m.Fn, ed.From, o.Buckets, definite)
				noteLines(m.Fn, ed.To, o.Buckets, definite)
			case KindPath:
				set := pathsSeen
				if !definite {
					set = pathsAmb
				}
				if set[m.Fn] == nil {
					set[m.Fn] = make(map[uint64]bool)
				}
				set[m.Fn][m.PathID] = true
				steps, err := ix.Decode(m)
				if err != nil {
					continue
				}
				prev := -1
				for _, s := range steps {
					cs.block(m.Fn, s.Block, definite)
					noteLines(m.Fn, s.Block, o.Buckets, definite)
					if prev >= 0 {
						if e := ix.edgeIndex(m.Fn, prev, s.Block); e >= 0 {
							cs.edge(m.Fn, e, definite)
						}
					}
					prev = s.Block
				}
				// Acyclic paths end AT back edges: a path whose last
				// step exits via a back edge proves that back edge ran,
				// but the edge itself is outside the decoded sequence.
				// Credit it here — definitely when the latch has a
				// single back edge, tentatively when several could have
				// fired. (Back-edge *entries* need no handling: every
				// enter pairs with some path's marked exit.)
				if len(steps) > 0 && steps[len(steps)-1].ExitViaBackEdge {
					backs := ix.backEdgesFrom(m.Fn, steps[len(steps)-1].Block)
					for _, e := range backs {
						cs.edge(m.Fn, e, definite && len(backs) == 1)
					}
				}
			}
		}
	}
	r.Observed += len(r.Unresolved)

	r.buildFuncs(ix, cs, pathsSeen, pathsAmb)
	r.buildLines(ix, lineBuckets, lineCovered)
	r.buildFrontier(ix, cs, obs, opt)
	return r
}

func (r *Report) buildFuncs(ix *Index, cs *coverageSets, seen, amb map[int]map[uint64]bool) {
	for fi, f := range ix.Prog.Funcs {
		fc := FuncCov{Fn: fi, Name: f.Name, Blocks: len(f.Blocks), Edges: len(f.Edges)}
		for b := range f.Blocks {
			if cs.posBlock[fi][b] {
				fc.BlocksCovered++
			}
		}
		for e := range f.Edges {
			if cs.posEdge[fi][e] {
				fc.EdgesCovered++
			}
		}
		if fc.PathMode = ix.pathMode(fi); fc.PathMode != "" {
			fc.NumPaths = ix.NumPaths(fi)
			fc.PathsSeen = len(seen[fi])
			for id := range amb[fi] {
				if !seen[fi][id] {
					fc.PathsAmbiguous++
				}
			}
		}
		r.Funcs = append(r.Funcs, fc)
	}
}

func (r *Report) buildLines(ix *Index, buckets map[int]uint8, covered map[int]int) {
	src := strings.Split(ix.Prog.Source, "\n")
	executable := make(map[int]bool)
	for fi := range ix.Prog.Funcs {
		for bi := range ix.Prog.Funcs[fi].Blocks {
			if lo, hi, ok := ix.BlockLines(fi, bi); ok {
				for l := lo; l <= hi; l++ {
					executable[l] = true
				}
			}
		}
	}
	for i, text := range src {
		no := i + 1
		r.Lines = append(r.Lines, Line{
			No:         no,
			Text:       text,
			Executable: executable[no],
			Covered:    covered[no],
			Buckets:    buckets[no],
		})
	}
}

// buildFrontier lists reached branches with exactly one unexplored
// side. The unexplored side is sound for every function whose cells
// attribute edges: its edge cell (or any path containing it) was never
// consumed, so no recorded execution took it. Hash-mode and
// un-enumerated path functions have no attribution and are skipped.
func (r *Report) buildFrontier(ix *Index, cs *coverageSets, obs []Obs, opt Options) {
	bucketOf := make(map[uint32]uint8, len(obs))
	for _, o := range obs {
		bucketOf[o.Cell] |= o.Buckets
	}
	mask := uint32(ix.MapSize - 1)
	var rows []Frontier
	for fi, f := range ix.Prog.Funcs {
		mode := ix.pathMode(fi)
		if mode == "hash" || mode == "overflow" {
			continue // cells are buckets, no attribution
		}
		for bi := range f.Blocks {
			blk := &f.Blocks[bi]
			if blk.Term.Kind != cfg.TermBr || blk.Term.Then == blk.Term.Else {
				continue
			}
			if !cs.posBlock[fi][bi] {
				continue
			}
			thenCov, elseCov := cs.posEdge[fi][blk.EdgeThen], cs.posEdge[fi][blk.EdgeElse]
			if thenCov == elseCov {
				continue
			}
			fr := Frontier{Fn: fi, FnName: f.Name, Block: bi, Line: blk.Term.Pos.Line}
			exploredEdge, missBlock := blk.EdgeThen, blk.Term.Else
			fr.Unexplored = "else"
			if elseCov {
				fr.Unexplored = "then"
				exploredEdge, missBlock = blk.EdgeElse, blk.Term.Then
			}
			if lo, _, ok := ix.BlockLines(fi, missBlock); ok {
				fr.UnexploredLine = lo
			}
			// Rarity: hit bucket of the explored side's own cell (only
			// edge-probed functions have one; path rarity would need
			// per-path aggregation and stays 0 = unknown).
			if mode == "" {
				cell := (ix.edgeBases[fi] + uint32(exploredEdge)) & mask
				fr.Rarity = bucketClass(bucketOf[cell])
			}
			if opt.Facts != nil && fi < len(opt.Facts.Fns) {
				for _, bf := range opt.Facts.Fns[fi].Branches {
					if bf.Block == bi {
						if !bf.Dep {
							fr.Dep = "input-independent"
						} else {
							fr.Dep = bf.Bytes.String()
							if fr.Dep == "-" {
								fr.Dep = "length-only"
							}
						}
						break
					}
				}
			}
			rows = append(rows, fr)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ri, rj := rows[i].Rarity, rows[j].Rarity
		if ri == 0 {
			ri = 9
		}
		if rj == 0 {
			rj = 9
		}
		if ri != rj {
			return ri < rj
		}
		if rows[i].Fn != rows[j].Fn {
			return rows[i].Fn < rows[j].Fn
		}
		return rows[i].Block < rows[j].Block
	})
	if len(rows) > maxFrontier {
		r.FrontierNote = fmt.Sprintf("showing %d of %d frontier branches", maxFrontier, len(rows))
		rows = rows[:maxFrontier]
	}
	r.Frontier = rows
}

// bucketClass returns the highest AFL hit-count class present in a
// bucket bitmask (1-8; 0 for an empty mask).
func bucketClass(b uint8) int {
	for c := 8; c >= 1; c-- {
		if b&(1<<(c-1)) != 0 {
			return c
		}
	}
	return 0
}

// marker renders a line's two-character coverage marker.
func (l Line) marker() string {
	if !l.Executable {
		return "  "
	}
	switch {
	case l.Covered == 0:
		return " -"
	case l.Covered == 1:
		return " ?"
	case l.Buckets == 0:
		return " +"
	default:
		return fmt.Sprintf("%2d", bucketClass(l.Buckets))
	}
}

// WriteText renders the full text report: summary, per-function table,
// frontier, annotated source. The summary line "unresolved cells: N"
// and the "frontier branches: N" line are stable grep targets for CI.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "coverage cartography: %s feedback=%s map=%d\n", r.Label, r.Feedback, r.MapSize)
	fmt.Fprintf(w, "observed cells: %d  resolved: %d (exact %d, ambiguous %d, hash-bucket %d, collisions %d)\n",
		r.Observed, r.Resolved, r.Exact, r.Ambiguous, r.BucketOnly, r.Collisions)
	fmt.Fprintf(w, "unresolved cells: %d", len(r.Unresolved))
	if len(r.Unresolved) > 0 {
		fmt.Fprintf(w, " %v", r.Unresolved)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "\nper-function coverage:\n")
	fmt.Fprintf(w, "  %-20s %9s %9s  %s\n", "function", "blocks", "edges", "paths")
	for _, fc := range r.Funcs {
		paths := ""
		switch fc.PathMode {
		case "exact":
			paths = fmt.Sprintf("%d of %d paths seen", fc.PathsSeen, fc.NumPaths)
			if fc.PathsAmbiguous > 0 {
				paths += fmt.Sprintf(" (+%d ambiguous)", fc.PathsAmbiguous)
			}
		case "hash":
			paths = "hash mode (buckets only)"
		case "overflow":
			paths = fmt.Sprintf("%d paths: beyond enumeration cap", fc.NumPaths)
		}
		fmt.Fprintf(w, "  %-20s %4d/%-4d %4d/%-4d  %s\n",
			fc.Name, fc.BlocksCovered, fc.Blocks, fc.EdgesCovered, fc.Edges, paths)
	}

	fmt.Fprintf(w, "\nfrontier branches: %d\n", len(r.Frontier))
	if r.FrontierNote != "" {
		fmt.Fprintf(w, "  (%s)\n", r.FrontierNote)
	}
	if len(r.Frontier) > 0 {
		fmt.Fprintf(w, "  %-6s %-16s %-6s %-5s %-10s %-6s %s\n", "rarity", "function", "block", "line", "unexplored", "@line", "input-bytes")
		for _, fr := range r.Frontier {
			rar := "?"
			if fr.Rarity > 0 {
				rar = fmt.Sprintf("b%d", fr.Rarity)
			}
			fmt.Fprintf(w, "  %-6s %-16s b%-5d %-5d %-10s %-6d %s\n",
				rar, fr.FnName, fr.Block, fr.Line, fr.Unexplored, fr.UnexploredLine, fr.Dep)
		}
	}

	fmt.Fprintf(w, "\nannotated source (%s: '-' uncovered, '+' covered, digit = max hit bucket, '?' ambiguous):\n", r.Feedback)
	for _, l := range r.Lines {
		fmt.Fprintf(w, "%5d %s| %s\n", l.No, l.marker(), l.Text)
	}
}
