// The cartography modes of paprof: `-explain` inverts a campaign's
// final coverage map cell by cell (every observed cell → its program
// meaning), `-coverage-report` renders the annotated-source coverage
// report, per-function path-discovery counts, and the frontier
// explorer. Both reconstruct the instrumentation layout offline from
// checkpoint metadata — the campaign itself is never re-executed.
package main

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis/interproc"
	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/covmap"
	"repro/internal/fleet"
	"repro/internal/fuzz"
	"repro/internal/strategy"
)

// explainMeaningCap bounds per-cell meaning listings in -explain: a
// heavily aliased path cell can carry hundreds of candidate paths, and
// the count matters more than the full enumeration.
const explainMeaningCap = 4

// campaignState is a campaign (or fleet) state directory as paprof
// reads it: the campaign description and the newest checkpoint
// snapshot of each worker — one for a single campaign, nil for a fleet
// worker whose checkpoints are all unusable.
type campaignState struct {
	meta  campaign.Meta
	label string
	snaps []*fuzz.Snapshot
}

// loadState reads the newest valid checkpoint under dir, or under
// every worker-N/ subdirectory of a fleet state directory.
func loadState(dir string) campaignState {
	fs := campaign.OSFS{}
	if fleet.HasManifest(fs, dir) {
		man, err := fleet.LoadManifest(fs, dir)
		if err != nil {
			fatalf("fleet manifest: %v", err)
		}
		st := campaignState{meta: man.Meta, label: man.Meta.Label() + " (fleet)", snaps: make([]*fuzz.Snapshot, man.Workers)}
		for i := range st.snaps {
			ck, warns, err := campaign.LoadLatest(fs, filepath.Join(dir, fmt.Sprintf("worker-%d", i)))
			for _, w := range warns {
				fmt.Fprintf(os.Stderr, "paprof: worker %d: %s\n", i, w)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "paprof: worker %d: %v\n", i, err)
				continue
			}
			st.snaps[i] = ck.Snap
		}
		return st
	}
	ck, warns, err := campaign.LoadLatest(fs, dir)
	for _, w := range warns {
		fmt.Fprintf(os.Stderr, "paprof: %s\n", w)
	}
	if err != nil {
		fatalf("%v", err)
	}
	return campaignState{meta: ck.Meta, label: ck.Meta.Label(), snaps: []*fuzz.Snapshot{ck.Snap}}
}

// virgin returns the union of the workers' final virgin-map cells.
func (st campaignState) virgin() []coverage.VirginCell {
	var out []coverage.VirginCell
	for _, snap := range st.snaps {
		if snap != nil {
			out = append(out, snap.Virgin...)
		}
	}
	return out
}

// cartographyIndex builds the reverse coverage-map index for a
// campaign's exact instrumentation layout. A source campaign whose
// file changed since is refused: an index built against different
// code would attribute cells to the wrong lines.
func cartographyIndex(meta campaign.Meta) (*covmap.Index, error) {
	fb, _, ok := strategy.SingleConfig(strategy.Name(meta.Fuzzer))
	if !ok {
		return nil, fmt.Errorf("configuration %q is not a single-feedback campaign; cartography needs one fixed map layout", meta.Fuzzer)
	}
	prog, _, err := meta.Program()
	if err != nil {
		return nil, err
	}
	return covmap.New(prog, fb, cmp.Or(meta.MapSize, coverage.DefaultMapSize))
}

// runExplain prints the program meaning of every cell the campaign's
// final virgin map has consumed. Exit status 1 if any observed cell
// fails to resolve — that would mean the reverse index disagrees with
// the runtime instrumentation.
func runExplain(dir string) {
	st := loadState(dir)
	ix, err := cartographyIndex(st.meta)
	if err != nil {
		fatalf("%v", err)
	}
	obs := covmap.FromVirgin(st.virgin())
	fmt.Printf("coverage map explanation: %s (feedback %s, map size %d)\n\n",
		st.label, ix.Feedback, ix.MapSize)
	unresolved := 0
	for _, o := range obs {
		ms := ix.Resolve(o.Cell)
		if len(ms) == 0 {
			unresolved++
			fmt.Printf("%6d  buckets %08b  UNRESOLVED\n", o.Cell, o.Buckets)
			continue
		}
		fmt.Printf("%6d  buckets %08b\n", o.Cell, o.Buckets)
		for i, m := range ms {
			if i == explainMeaningCap {
				fmt.Printf("          … %d more candidate meanings\n", len(ms)-i)
				break
			}
			fmt.Printf("          %s\n", ix.String(m))
		}
	}
	fmt.Printf("\n%d cells observed, %d unresolved\n", len(obs), unresolved)
	if unresolved > 0 {
		os.Exit(1)
	}
}

// runCoverageReport renders the full cartography report: summary,
// per-function table (including path-discovery counts), frontier
// explorer, and annotated source. With htmlOut the same report is also
// written as a self-contained HTML page. Exit status 1 if any observed
// cell is unresolvable.
func runCoverageReport(dir, htmlOut string) {
	st := loadState(dir)
	ix, err := cartographyIndex(st.meta)
	if err != nil {
		fatalf("%v", err)
	}
	obs := covmap.FromVirgin(st.virgin())
	rep := ix.BuildReport(obs, covmap.Options{
		Label: st.label,
		Facts: interproc.ForProgram(ix.Prog),
	})
	rep.WriteText(os.Stdout)
	if htmlOut != "" {
		page := rep.WriteHTML("paprof coverage report")
		if werr := os.WriteFile(htmlOut, page, 0o644); werr != nil {
			fatalf("writing %s: %v", htmlOut, werr)
		}
		fmt.Printf("\nHTML report: %s\n", htmlOut)
	}
	if len(rep.Unresolved) > 0 {
		os.Exit(1)
	}
}
