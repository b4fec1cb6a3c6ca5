// Live coverage-cartography wiring: durable single-configuration
// campaigns register display-only hooks on the telemetry recorder so
// the metrics endpoint can resolve journaled map cells to source
// meaning (/genealogy) and render the live coverage report
// (/coverage). The index is built lazily on first request, entirely
// outside the fuzzing loop — campaigns with and without a metrics
// endpoint execute byte-identically.
package main

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/covmap"
	"repro/internal/instrument"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// attachCartography registers the cell resolver and /coverage page on
// the recorder. Failures degrade to raw cell indices / an error page —
// cartography is garnish, never a reason to stop a campaign.
func attachCartography(rec *telemetry.Recorder, prog *cfg.Program, fb instrument.Feedback, mapSize int, label string) {
	if rec == nil {
		return
	}
	if mapSize == 0 {
		mapSize = coverage.DefaultMapSize
	}
	var (
		once  sync.Once
		ix    *covmap.Index
		ixErr error
	)
	index := func() (*covmap.Index, error) {
		once.Do(func() { ix, ixErr = covmap.New(prog, fb, mapSize) })
		return ix, ixErr
	}
	rec.SetCellResolver(func(cell uint32) string {
		ix, err := index()
		if err != nil {
			return fmt.Sprintf("cell %d", cell)
		}
		return ix.CellLabel(cell)
	})
	rec.SetCoveragePage(func(w io.Writer, events []journal.Event) error {
		ix, err := index()
		if err != nil {
			return err
		}
		var cells []uint32
		for _, ev := range events {
			if ev.Kind == journal.KindNovelty {
				cells = append(cells, ev.Cells...)
			}
		}
		rep := ix.BuildReport(covmap.FromCells(cells), label)
		_, werr := w.Write(rep.WriteHTML("live coverage — " + label))
		return werr
	})
}
