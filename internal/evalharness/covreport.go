package evalharness

import (
	"bytes"
	"fmt"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/covmap"
	"repro/internal/strategy"
	"repro/internal/subjects"
)

// covReportDir is the StateDir subdirectory holding per-run coverage
// cartography reports: annotated source, per-function path-discovery
// counts, and the frontier of reached-but-unexplored branches, one
// text file per campaign. Like the curves and provenance CSVs they are
// regenerated artifacts — the checkpointed run data stays the source
// of truth.
const covReportDir = "covreports"

func covReportFileName(subject string, f strategy.Name, run int) string {
	return fmt.Sprintf("%s_%s_%03d_cov.txt", campaign.SanitizeName(subject), campaign.SanitizeName(string(f)), run)
}

// saveCovReport persists one run's coverage cartography report under
// StateDir/covreports. Only single-phase configurations have a fixed
// map layout to invert; round-based strategies are skipped without
// error.
func saveCovReport(cfg Config, rr *RunResult) error {
	fb, _, ok := strategy.SingleConfig(rr.Fuzzer)
	if !ok {
		return nil
	}
	sub := subjects.Get(rr.Subject)
	if sub == nil {
		return fmt.Errorf("evalharness: unknown subject %q", rr.Subject)
	}
	prog, err := sub.Program()
	if err != nil {
		return err
	}
	mapSize := cfg.MapSize
	if mapSize == 0 {
		mapSize = coverage.DefaultMapSize
	}
	ix, err := covmap.New(prog, fb, mapSize)
	if err != nil {
		return err
	}
	var cells []uint32
	if rr.Report != nil {
		for _, cm := range rr.Report.Corpus {
			cells = append(cells, cm.FirstCells...)
		}
	}
	rep := ix.BuildReport(covmap.FromCells(cells), fmt.Sprintf("%s/%s run %d", rr.Subject, rr.Fuzzer, rr.Run))
	var buf bytes.Buffer
	rep.WriteText(&buf)
	dir := filepath.Join(cfg.StateDir, covReportDir)
	if err := cfg.FS.MkdirAll(dir); err != nil {
		return err
	}
	path := filepath.Join(dir, covReportFileName(rr.Subject, rr.Fuzzer, rr.Run))
	return campaign.WriteFileAtomic(cfg.FS, path, buf.Bytes())
}
