package evalharness

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/campaign"
	"repro/internal/strategy"
	"repro/internal/triage"
)

// runsDir is the StateDir subdirectory holding persisted run results.
const runsDir = "runs"

// runVersion is the format of a saved run. Version 1 puts the exec
// stamps of a round-based campaign's report on the campaign's exec
// axis; runs saved before it decode as version 0, carry round-relative
// stamps the curves would misread, and are recomputed.
const runVersion = 1

// savedRun is the on-disk form of a RunResult, sealed with the campaign
// checkpoint framing so truncation and corruption are detected on load.
// EdgeSet flattens to a sorted slice (gob cannot encode set maps), and
// the budget fields pin the configuration the run was produced under: a
// saved run from a different configuration or format version is
// treated as a miss, never silently reused.
type savedRun struct {
	Version int
	Subject string
	Fuzzer  strategy.Name
	Run     int
	Result  RunResult
	Edges   []uint32

	Budget      int64
	RoundBudget int64
	MapSize     int
	BaseSeed    int64
}

func runFileName(subject string, f strategy.Name, run int) string {
	return fmt.Sprintf("%s_%s_%03d.run", campaign.SanitizeName(subject), campaign.SanitizeName(string(f)), run)
}

func runFilePath(dir, subject string, f strategy.Name, run int) string {
	return filepath.Join(dir, runsDir, runFileName(subject, f, run))
}

// saveRun persists one finished campaign under cfg.StateDir.
func saveRun(cfg Config, rr *RunResult) error {
	sv := savedRun{
		Version:     runVersion,
		Subject:     rr.Subject,
		Fuzzer:      rr.Fuzzer,
		Run:         rr.Run,
		Result:      *rr,
		Budget:      cfg.Budget,
		RoundBudget: cfg.RoundBudget,
		MapSize:     cfg.MapSize,
		BaseSeed:    cfg.BaseSeed,
	}
	sv.Result.EdgeSet = nil
	for e := range rr.EdgeSet {
		sv.Edges = append(sv.Edges, e)
	}
	sort.Slice(sv.Edges, func(i, j int) bool { return sv.Edges[i] < sv.Edges[j] })

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&sv); err != nil {
		return err
	}
	if err := cfg.FS.MkdirAll(filepath.Join(cfg.StateDir, runsDir)); err != nil {
		return err
	}
	path := runFilePath(cfg.StateDir, rr.Subject, rr.Fuzzer, rr.Run)
	return campaign.WriteFileAtomic(cfg.FS, path, campaign.Seal(buf.Bytes()))
}

// loadRun returns the persisted result for one campaign, or nil if it
// is absent, unreadable, corrupt, or from a different configuration or
// format version — every miss means "run it again", so a damaged state
// dir degrades to recomputation, never to wrong results.
func loadRun(cfg Config, subject string, f strategy.Name, run int) *RunResult {
	data, err := cfg.FS.ReadFile(runFilePath(cfg.StateDir, subject, f, run))
	if err != nil {
		return nil
	}
	payload, err := campaign.Open(data)
	if err != nil {
		return nil
	}
	var sv savedRun
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&sv); err != nil {
		return nil
	}
	if sv.Version != runVersion || sv.Subject != subject || sv.Fuzzer != f || sv.Run != run ||
		sv.Budget != cfg.Budget || sv.RoundBudget != cfg.RoundBudget ||
		sv.MapSize != cfg.MapSize || sv.BaseSeed != cfg.BaseSeed ||
		sv.Result.Report == nil {
		return nil
	}
	rr := sv.Result
	rr.EdgeSet = triage.NewSet[uint32](sv.Edges...)
	return &rr
}
