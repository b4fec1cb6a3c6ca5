package journal

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"
)

// CorpusMeta is the provenance record of one corpus entry: who spawned
// it, which mutation stage produced it, when, and which coverage-map
// cells it discovered first. The fuzz package attaches a []CorpusMeta
// to every Report; the fleet merge concatenates them in (worker, id)
// order, so the merged view is deterministic.
type CorpusMeta struct {
	// Worker is the fleet worker id that found the entry (0 for single
	// campaigns; assigned by the fleet merge).
	Worker int `json:"worker"`
	// ID is the entry's queue index within its worker.
	ID int `json:"id"`
	// Parent is the queue index of the entry the mutation started from
	// (-1 for initial seeds).
	Parent int `json:"parent"`
	// Stage is the discovering mutation stage (seed|havoc|splice|cmplog).
	Stage string `json:"stage"`
	// Depth is the mutation-chain length from the seed corpus.
	Depth int `json:"depth"`
	// Steps is the entry's execution cost.
	Steps int64 `json:"steps"`
	// FoundAt is the campaign execution counter at admission.
	FoundAt int64 `json:"found_at"`
	// Len is the input length in bytes.
	Len int `json:"len"`
	// CovCount is the entry's sparse coverage size.
	CovCount int `json:"cov"`
	// FirstCells lists the map cells (edge ids / path ids, per the
	// campaign's feedback) this entry was first to touch.
	FirstCells []uint32 `json:"first_cells,omitempty"`
}

// Genealogy renders the corpus ancestry DAG as an indented text tree,
// one worker at a time: roots are seeds (parent -1), children sit
// under the entry whose mutation produced them.
func Genealogy(w io.Writer, corpus []CorpusMeta) {
	byWorker := splitWorkers(corpus)
	for _, wid := range workerIDs(byWorker) {
		entries := byWorker[wid]
		if len(byWorker) > 1 {
			fmt.Fprintf(w, "worker %d:\n", wid)
		}
		children := make(map[int][]int)
		var roots []int
		for i, m := range entries {
			if m.Parent < 0 {
				roots = append(roots, i)
			} else {
				children[m.Parent] = append(children[m.Parent], i)
			}
		}
		var walk func(i, depth int)
		seen := make(map[int]bool)
		walk = func(i, depth int) {
			if seen[i] {
				return
			}
			seen[i] = true
			m := entries[i]
			fmt.Fprintf(w, "%s#%-4d %-6s found@%-8d depth=%-2d cov=%-3d first=%-3d len=%d\n",
				strings.Repeat("  ", depth), m.ID, m.Stage, m.FoundAt, m.Depth, m.CovCount, len(m.FirstCells), m.Len)
			for _, c := range children[m.ID] {
				walk(c, depth+1)
			}
		}
		for _, r := range roots {
			walk(r, 0)
		}
		// Orphans (parent beyond the recorded corpus, e.g. a checkpoint
		// predating provenance) still print, flat.
		for i := range entries {
			walk(i, 0)
		}
	}
}

// splitWorkers groups corpus records by worker, each group sorted by
// entry id.
func splitWorkers(corpus []CorpusMeta) map[int][]CorpusMeta {
	out := make(map[int][]CorpusMeta)
	for _, m := range corpus {
		out[m.Worker] = append(out[m.Worker], m)
	}
	for wid := range out {
		g := out[wid]
		sort.Slice(g, func(i, j int) bool { return g[i].ID < g[j].ID })
	}
	return out
}

func workerIDs(m map[int][]CorpusMeta) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// stageOrder fixes the attribution table's row order.
var stageOrder = []string{"seed", "havoc", "splice", "cmplog"}

// stageRow is one line of the discovery-attribution table.
type stageRow struct {
	Stage      string
	Entries    int
	FirstCells int
	Crashes    int
}

// AttributionRows aggregates per-stage discovery attribution: how many
// corpus entries each mutation stage produced, how many coverage cells
// those entries were first to discover, and how many first-found
// crashes the journal's events credit to the stage (a crash event with
// no stage counts under "?").
func AttributionRows(corpus []CorpusMeta, events []Event) []stageRow {
	agg := make(map[string]*stageRow)
	row := func(stage string) *stageRow {
		if stage == "" {
			stage = "?"
		}
		r := agg[stage]
		if r == nil {
			r = &stageRow{Stage: stage}
			agg[stage] = r
		}
		return r
	}
	for _, m := range corpus {
		r := row(m.Stage)
		r.Entries++
		r.FirstCells += len(m.FirstCells)
	}
	for _, ev := range events {
		if ev.Kind == KindCrash {
			row(ev.Stage).Crashes++
		}
	}
	var rows []stageRow
	for _, s := range stageOrder {
		if r, ok := agg[s]; ok {
			rows = append(rows, *r)
			delete(agg, s)
		}
	}
	var rest []string
	for s := range agg {
		rest = append(rest, s)
	}
	sort.Strings(rest)
	for _, s := range rest {
		rows = append(rows, *agg[s])
	}
	return rows
}

// Attribution renders the per-stage discovery-attribution table: which
// stage found which share of the corpus and of first-discovered
// coverage (cells are edge ids or path ids depending on the campaign
// feedback, named in the caller-supplied label), and which found the
// crashes. The crash column reads "-" without journal events.
func Attribution(w io.Writer, label string, corpus []CorpusMeta, events []Event) {
	rows := AttributionRows(corpus, events)
	totalE, totalC, totalX := 0, 0, 0
	for _, r := range rows {
		totalE += r.Entries
		totalC += r.FirstCells
		totalX += r.Crashes
	}
	fmt.Fprintf(w, "discovery attribution (%s):\n", label)
	fmt.Fprintf(w, "  %-8s %8s %8s %14s %8s\n", "stage", "entries", "cells", "cell-share", "crashes")
	for _, r := range rows {
		share := 0.0
		if totalC > 0 {
			share = 100 * float64(r.FirstCells) / float64(totalC)
		}
		fmt.Fprintf(w, "  %-8s %8d %8d %13.1f%% %8s\n", r.Stage, r.Entries, r.FirstCells, share, crashCount(r.Crashes, events))
	}
	fmt.Fprintf(w, "  %-8s %8d %8d %14s %8s\n", "total", totalE, totalC, "", crashCount(totalX, events))
}

// crashCount renders a crash count, or "-" without journal events to
// count from.
func crashCount(n int, events []Event) string {
	if len(events) == 0 {
		return "-"
	}
	return fmt.Sprint(n)
}

// CellResolver maps a coverage-map cell to a human-readable program
// meaning ("edge main b2→b5 (line 14)"). Package covmap provides one
// per ⟨subject, feedback⟩; journal stays a leaf package and only
// renders what it is handed. A nil resolver renders raw cell indices.
type CellResolver func(cell uint32) string

// coverageDeltaCap bounds rendered novelty rows so a long campaign's
// report stays readable; the cap is reported, never silent.
const coverageDeltaCap = 500

// CoverageDelta renders the per-cycle coverage-delta attribution
// stream: which cells each novel input lit, grouped by queue cycle and
// resolved to source meaning via the resolver. The underlying data is
// the journaled novelty events' Cells payload — nothing here re-reads
// fuzzer state.
func CoverageDelta(w io.Writer, events []Event, resolve CellResolver) {
	fmt.Fprintf(w, "coverage-delta attribution (cells each novel input lit):\n")
	cycle := -1
	rows, skipped := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case KindCycle:
			cycle = ev.Cycle
		case KindNovelty:
			if rows >= coverageDeltaCap {
				skipped++
				continue
			}
			rows++
			if cycle >= 0 {
				fmt.Fprintf(w, "  cycle %d ", cycle)
			} else {
				fmt.Fprintf(w, "  warmup ")
			}
			entry := -1
			if ev.Entry != nil {
				entry = *ev.Entry
			}
			fmt.Fprintf(w, "exec %d %s entry #%d w%d: %d cells\n", ev.Execs, ev.Stage, entry, ev.Worker, len(ev.Cells))
			for i, c := range ev.Cells {
				if i >= 8 {
					fmt.Fprintf(w, "    … %d more\n", len(ev.Cells)-i)
					break
				}
				if resolve != nil {
					fmt.Fprintf(w, "    %05d %s\n", c, resolve(c))
				} else {
					fmt.Fprintf(w, "    %05d\n", c)
				}
			}
		}
	}
	if rows == 0 {
		fmt.Fprintf(w, "  (no novelty events)\n")
	}
	if skipped > 0 {
		fmt.Fprintf(w, "  … %d further novelty events omitted\n", skipped)
	}
}

// Corpus reconstructs corpus provenance from a journal's novelty
// events: the view of a campaign that needs no checkpoint, for the
// live dashboard (whose queue the fuzz goroutine owns) and `paprof
// -journal`.
func Corpus(events []Event) []CorpusMeta {
	var out []CorpusMeta
	for _, ev := range events {
		if ev.Kind != KindNovelty || ev.Entry == nil {
			continue
		}
		m := CorpusMeta{
			Worker:     ev.Worker,
			ID:         *ev.Entry,
			Parent:     -1,
			Stage:      ev.Stage,
			Depth:      ev.Depth,
			Steps:      ev.Steps,
			FoundAt:    ev.Execs,
			Len:        ev.Len,
			CovCount:   ev.Cov,
			FirstCells: ev.Cells,
		}
		if ev.Parent != nil {
			m.Parent = *ev.Parent
		}
		out = append(out, m)
	}
	return out
}

// ProvenanceCSV renders the corpus provenance as CSV — the per-run
// summary evalharness drops next to its coverage-curve files.
func ProvenanceCSV(corpus []CorpusMeta) []byte {
	var b strings.Builder
	b.WriteString("worker,id,parent,stage,depth,steps,found_at,len,cov,first_cells\n")
	for _, m := range corpus {
		fmt.Fprintf(&b, "%d,%d,%d,%s,%d,%d,%d,%d,%d,%d\n",
			m.Worker, m.ID, m.Parent, m.Stage, m.Depth, m.Steps, m.FoundAt, m.Len, m.CovCount, len(m.FirstCells))
	}
	return []byte(b.String())
}

// HTMLReport renders the attribution table and the genealogy as a
// self-contained HTML page (the telemetry dashboard's /genealogy).
// With journaled events it adds the event counts and a coverage-delta
// section, which resolves each novel input's cells to source through a
// non-nil resolver.
func HTMLReport(title, label string, corpus []CorpusMeta, events []Event, resolve CellResolver) []byte {
	var b strings.Builder
	b.WriteString("<h2>discovery attribution</h2><table><tr><th class=l>stage</th><th>entries</th><th>first cells</th><th>crashes</th></tr>")
	for _, r := range AttributionRows(corpus, events) {
		fmt.Fprintf(&b, "<tr><td class=l>%s</td><td>%d</td><td>%d</td><td>%s</td></tr>", html.EscapeString(r.Stage), r.Entries, r.FirstCells, crashCount(r.Crashes, events))
	}
	b.WriteString("</table>")
	preSection(&b, "genealogy", func(w io.Writer) { Genealogy(w, corpus) })
	if len(events) > 0 {
		fmt.Fprintf(&b, "<h2>journal (%d events)</h2><table><tr><th class=l>kind</th><th>count</th></tr>", len(events))
		counts := KindCounts(events)
		var kinds []string
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "<tr><td class=l>%s</td><td>%d</td></tr>", html.EscapeString(k), counts[k])
		}
		b.WriteString("</table>")
		preSection(&b, "coverage-delta attribution", func(w io.Writer) { CoverageDelta(w, events, resolve) })
	}
	fmt.Fprintf(&b, "<p>%s</p>", html.EscapeString(label))
	return Page(title, "", b.String())
}
