// The forensics modes of paprof: `-journal` validates and summarises a
// campaign's structured event journal; `-genealogy` renders corpus
// provenance (per-stage discovery attribution, genealogy DAG) from a
// campaign's checkpoints. Both work offline from the state directory
// alone — no target compilation, no re-execution.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fuzz"
	"repro/internal/journal"
)

// resolveJournalDir accepts either a campaign state directory or the
// journal directory itself.
func resolveJournalDir(dir string) string {
	if _, err := os.Stat(filepath.Join(dir, "journal")); err == nil {
		return filepath.Join(dir, "journal")
	}
	return dir
}

// runJournal reads, validates, and summarises a journal directory. The
// exit code is the validation verdict — the CI smoke job greps nothing,
// it just runs this and checks the status.
func runJournal(dir string) {
	jdir := resolveJournalDir(dir)
	events, diag, err := journal.ReadDir(jdir)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("journal %s: %d segments, %d events, seq %d..%d\n",
		diag.Dir, diag.Segments, diag.Events, diag.FirstSeq, diag.LastSeq)
	for _, t := range diag.Torn {
		fmt.Printf("  torn (recoverable): %s\n", t)
	}
	counts := journal.KindCounts(events)
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-12s %d\n", k, counts[k])
	}
	if len(events) > 0 {
		fmt.Println()
		journal.Attribution(os.Stdout, diag.Dir, journal.Corpus(events), events)
	}
	if flights, _ := filepath.Glob(filepath.Join(jdir, journal.FlightDir, "*.jsonl")); len(flights) > 0 {
		fmt.Printf("\nflight-recorder dumps:\n")
		for _, f := range flights {
			fmt.Printf("  %s\n", f)
		}
	}
	if !diag.OK() {
		for _, e := range diag.Errors {
			fmt.Fprintf(os.Stderr, "paprof: journal error: %s\n", e)
		}
		for _, g := range diag.Gaps {
			fmt.Fprintf(os.Stderr, "paprof: journal gap: %s\n", g)
		}
		os.Exit(1)
	}
	fmt.Println("\njournal OK (gapless, schema-clean)")
}

// runGenealogy loads corpus provenance from a campaign (or fleet) state
// directory's checkpoints and renders the per-stage discovery-attribution
// table and the genealogy DAG. With htmlOut the same report is written
// as a self-contained HTML page.
func runGenealogy(dir, htmlOut string) {
	st := loadState(dir)
	var corpus []journal.CorpusMeta
	for i, snap := range st.snaps {
		if snap != nil {
			corpus = append(corpus, fuzz.SnapshotProvenance(snap, i)...)
		}
	}
	if len(corpus) == 0 {
		fatalf("no corpus provenance under %s (no usable checkpoint?)", dir)
	}
	// The journal stream is optional here: provenance lives in the
	// checkpoints, but a journal adds the crash column and the
	// coverage-delta stream.
	var events []journal.Event
	if jdir := filepath.Join(dir, "journal"); dirExists(jdir) {
		events, _, _ = journal.ReadDir(jdir)
	}
	// The cell resolver is best-effort: genealogy must keep working for
	// campaigns whose map layout cannot be reconstructed (multi-phase
	// strategies, drifted sources) — those just render raw cell indices.
	var resolve journal.CellResolver
	if ix, err := cartographyIndex(st.meta); err == nil {
		resolve = ix.CellLabel
	} else {
		fmt.Fprintf(os.Stderr, "paprof: no cell attribution: %v\n", err)
	}
	journal.Attribution(os.Stdout, st.label, corpus, events)
	fmt.Println()
	journal.Genealogy(os.Stdout, corpus)
	if len(events) > 0 {
		fmt.Println()
		journal.CoverageDelta(os.Stdout, events, resolve)
	}
	if htmlOut != "" {
		page := journal.HTMLReport("paprof genealogy", st.label, corpus, events, resolve)
		if err := os.WriteFile(htmlOut, page, 0o644); err != nil {
			fatalf("writing %s: %v", htmlOut, err)
		}
		fmt.Printf("\nHTML report: %s\n", htmlOut)
	}
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
