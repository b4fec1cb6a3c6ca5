package covmap_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis/interproc"
	"repro/internal/campaign"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/covmap"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/strategy"
	"repro/internal/subjects"
)

// runCampaign runs a short deterministic campaign and returns the
// program plus the consumed virgin-map cells.
func runCampaign(t *testing.T, name string, fb instrument.Feedback, c instrument.Config, budget int64) (*cfg.Program, []coverage.VirginCell) {
	t.Helper()
	sub := subjects.Get(name)
	if sub == nil {
		t.Fatalf("unknown subject %q", name)
	}
	prog, err := sub.Program()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	f, err := fuzz.New(prog, fuzz.Options{Feedback: fb, Seed: 1, Instr: c})
	if err != nil {
		t.Fatalf("%s/%v: %v", name, fb, err)
	}
	for _, s := range sub.Seeds {
		f.AddSeed(s)
	}
	f.Fuzz(budget)
	return prog, f.VirginCells()
}

// campaignFeedbacks returns, deduplicated and in order, the feedbacks
// of every single-feedback campaign strategy.SingleConfig names.
func campaignFeedbacks() []instrument.Feedback {
	var fbs []instrument.Feedback
	for _, name := range append(append([]strategy.Name(nil), strategy.AllNames...), strategy.Path2, strategy.Selective) {
		if fb, _, ok := strategy.SingleConfig(name); ok && !slices.Contains(fbs, fb) {
			fbs = append(fbs, fb)
		}
	}
	return fbs
}

// TestEveryCampaignCellResolves is the cartography acceptance bar: for
// every subject and every feedback a campaign can run, every cell a
// real campaign's final virgin map has consumed must resolve to at
// least one program meaning (a source location or an explicitly-marked
// hash bucket). An unresolved cell would mean the offline reverse index
// disagrees with the runtime instrumentation's cell-index arithmetic.
func TestEveryCampaignCellResolves(t *testing.T) {
	feedbacks := campaignFeedbacks()
	if len(feedbacks) != 5 {
		t.Fatalf("campaigns run %d feedbacks %v, want 5", len(feedbacks), feedbacks)
	}
	for _, name := range subjects.Names() {
		for _, fb := range feedbacks {
			prog, cells := runCampaign(t, name, fb, instrument.Config{}, 300)
			ix, err := covmap.New(prog, fb, coverage.DefaultMapSize)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, fb, err)
			}
			obs := covmap.FromVirgin(cells)
			if len(obs) == 0 {
				t.Errorf("%s/%v: campaign consumed no cells", name, fb)
			}
			for _, o := range obs {
				if ms := ix.Resolve(o.Cell); len(ms) == 0 {
					t.Errorf("%s/%v: consumed cell %d unresolved", name, fb, o.Cell)
				}
			}
		}
	}
}

// TestIndexFollowsProbes pins that the index follows each function's
// probes. Under selective, cflow's edge-probed functions resolve to
// edge cells and report no path column, and the rest report decodable
// paths. Under path2, every cell also carries the 2-gram bucket.
func TestIndexFollowsProbes(t *testing.T) {
	prog := subjects.Get("cflow").MustProgram()
	usePath := instrument.SelectivePathFns(prog)
	ix, err := covmap.New(prog, instrument.FeedbackSelective, coverage.DefaultMapSize)
	if err != nil {
		t.Fatal(err)
	}
	bases := instrument.EdgeBases(prog)
	edgeFns := 0
	for _, fc := range ix.BuildReport(nil, covmap.Options{}).Funcs {
		if want := usePath[fc.Fn]; (fc.PathMode == "exact") != want {
			t.Errorf("%s: path mode %q, path probes %v", fc.Name, fc.PathMode, want)
		}
		if usePath[fc.Fn] || fc.Edges == 0 {
			continue
		}
		edgeFns++
		found := false
		for _, m := range ix.Resolve(bases[fc.Fn]) {
			found = found || m.Kind == covmap.KindEdge && m.Fn == fc.Fn && m.Edge == 0
		}
		if !found {
			t.Errorf("%s: first edge cell %d does not resolve to its edge", fc.Name, bases[fc.Fn])
		}
	}
	if edgeFns == 0 {
		t.Fatal("cflow has no edge-probed function under selective")
	}

	ix2, err := covmap.New(prog, instrument.FeedbackPath2, coverage.DefaultMapSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []uint32{0, 12345} {
		ms := ix2.Resolve(cell)
		if len(ms) == 0 || ms[len(ms)-1].Kind != covmap.KindPath2Gram {
			t.Errorf("path2 cell %d resolves to %v, want a trailing 2-gram bucket", cell, ms)
		}
	}
}

// TestDiscoveredPathsDecode checks, for both probe-placement variants,
// that every exact path meaning behind a cell a path-feedback campaign
// actually consumed decodes to a block sequence without error.
func TestDiscoveredPathsDecode(t *testing.T) {
	for _, noopt := range []bool{false, true} {
		c := instrument.Config{NoOpt: noopt}
		for _, name := range subjects.Names() {
			prog, cells := runCampaign(t, name, instrument.FeedbackPath, c, 200)
			ix, err := covmap.New(prog, instrument.FeedbackPath, coverage.DefaultMapSize)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			decoded := 0
			for _, o := range covmap.FromVirgin(cells) {
				for _, m := range ix.Resolve(o.Cell) {
					if m.Kind != covmap.KindPath {
						continue
					}
					steps, derr := ix.Decode(m)
					if derr != nil {
						t.Fatalf("%s noopt=%v: cell %d path %d: %v", name, noopt, o.Cell, m.PathID, derr)
					}
					if len(steps) == 0 {
						t.Fatalf("%s noopt=%v: cell %d path %d decoded empty", name, noopt, o.Cell, m.PathID)
					}
					decoded++
				}
			}
			if decoded == 0 {
				t.Errorf("%s noopt=%v: no exact path meanings decoded", name, noopt)
			}
		}
	}
}

// TestReportRendering drives the full report pipeline on one campaign
// and checks the artifacts: summary with the stable grep targets, a
// non-empty frontier with interproc byte attribution, annotated
// source, per-function path counts, and a well-formed HTML page.
func TestReportRendering(t *testing.T) {
	prog, cells := runCampaign(t, subjects.Names()[0], instrument.FeedbackPath, instrument.Config{}, 300)
	ix, err := covmap.New(prog, instrument.FeedbackPath, coverage.DefaultMapSize)
	if err != nil {
		t.Fatal(err)
	}
	rep := ix.BuildReport(covmap.FromVirgin(cells), covmap.Options{
		Label: "test",
		Facts: interproc.ForProgram(prog),
	})
	var b strings.Builder
	rep.WriteText(&b)
	text := b.String()
	for _, want := range []string{"unresolved cells: 0", "frontier branches:", "annotated source", "paths seen"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	if len(rep.Unresolved) != 0 {
		t.Errorf("unresolved cells: %v", rep.Unresolved)
	}
	if len(rep.Frontier) == 0 {
		t.Error("short campaign left no frontier branches — implausible")
	}
	page := string(rep.WriteHTML("t"))
	if !strings.HasPrefix(page, "<!doctype html>") || !strings.HasSuffix(page, "</body></html>") {
		t.Errorf("HTML page not well-formed:\n%.120s", page)
	}
	if !strings.Contains(page, "frontier") {
		t.Error("HTML page missing frontier section")
	}
}

// TestCellLabelAndObs covers the small observation plumbing: duplicate
// virgin cells merge (fleet unions), FromCells dedupes, and CellLabel
// renders something human for resolvable cells and "unresolved"
// otherwise.
func TestCellLabelAndObs(t *testing.T) {
	obs := covmap.FromVirgin([]coverage.VirginCell{
		{Index: 7, Bits: 0xfe}, {Index: 7, Bits: 0xfd}, {Index: 3, Bits: 0x00},
	})
	if len(obs) != 2 || obs[0].Cell != 3 || obs[1].Cell != 7 || obs[1].Buckets != 0x03 {
		t.Fatalf("FromVirgin merge = %+v", obs)
	}
	if got := covmap.FromCells([]uint32{9, 2, 9}); len(got) != 2 || got[0].Cell != 2 {
		t.Fatalf("FromCells = %+v", got)
	}

	sub := subjects.Get(subjects.Names()[0])
	prog, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := covmap.New(prog, instrument.FeedbackEdge, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	bases := instrument.EdgeBases(prog)
	if got := ix.CellLabel(bases[0]); got == "unresolved" || got == "" {
		t.Fatalf("CellLabel(first edge cell) = %q", got)
	}
	// Edge feedback leaves most of a 64k map unwritable; find one such
	// cell and check it reports honestly.
	found := false
	for c := uint32(0); c < 1<<16; c++ {
		if ix.Resolve(c) == nil {
			if got := ix.CellLabel(c); got != "unresolved" {
				t.Fatalf("CellLabel(unwritable %d) = %q", c, got)
			}
			found = true
			break
		}
	}
	if !found {
		t.Error("edge feedback claims every cell of a 64k map writable")
	}
}

// TestCartographyByteIdentity proves the display-only invariant end to
// end: a campaign whose cartography artifacts are generated (index
// built from the same live program, every consumed cell resolved, full
// report rendered) writes byte-identical checkpoints and an identical
// report to a campaign run without any of it.
func TestCartographyByteIdentity(t *testing.T) {
	sub := subjects.Get(subjects.Names()[0])
	prog1, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	run := func(dir string, prog *cfg.Program, cartography bool) *fuzz.Report {
		opts := fuzz.Options{Feedback: instrument.FeedbackPath, Seed: 42}
		r := campaign.NewRunner(dir, campaign.Config{Interval: 100})
		if err := r.Start(prog, opts, campaign.Meta{Subject: sub.Name, Fuzzer: "path", Seed: 42, Budget: 300, Entry: "main"}, sub.Seeds); err != nil {
			t.Fatal(err)
		}
		var ix *covmap.Index
		if cartography {
			// Built from the live program while the campaign holds it —
			// the index must be a pure reader.
			ix, err = covmap.New(prog, instrument.FeedbackPath, coverage.DefaultMapSize)
			if err != nil {
				t.Fatal(err)
			}
		}
		rep, interrupted, err := r.Run()
		if err != nil || interrupted {
			t.Fatalf("run: interrupted=%v err=%v", interrupted, err)
		}
		if cartography {
			obs := covmap.FromVirgin(r.Fuzzer().VirginCells())
			for _, o := range obs {
				_ = ix.CellLabel(o.Cell)
			}
			full := ix.BuildReport(obs, covmap.Options{Label: "x", Facts: interproc.ForProgram(prog)})
			var b strings.Builder
			full.WriteText(&b)
			_ = full.WriteHTML("x")
		}
		return rep
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	repA := run(dirA, prog1, false)
	repB := run(dirB, prog2, true)
	if !reflect.DeepEqual(repA, repB) {
		t.Error("reports differ between cartography-off and cartography-on runs")
	}
	ckptsA, _ := filepath.Glob(filepath.Join(dirA, "checkpoints", "*"))
	ckptsB, _ := filepath.Glob(filepath.Join(dirB, "checkpoints", "*"))
	if len(ckptsA) == 0 || len(ckptsA) != len(ckptsB) {
		t.Fatalf("checkpoint counts differ: %d vs %d", len(ckptsA), len(ckptsB))
	}
	for i := range ckptsA {
		if filepath.Base(ckptsA[i]) != filepath.Base(ckptsB[i]) {
			t.Fatalf("checkpoint names differ: %s vs %s", ckptsA[i], ckptsB[i])
		}
		a, err := os.ReadFile(ckptsA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(ckptsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("checkpoint %s not byte-identical", filepath.Base(ckptsA[i]))
		}
	}
}
