package fleet_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// FuzzDecodeManifest feeds hostile manifests to the decoder. The seed
// is the manifest of a real 2-worker fleet, stopped mid-run after one
// injected worker panic so it carries a quarantine entry and a restart.
// The payload is re-sealed, so the mutated bytes reach gob rather than
// failing the checksum. Decoding must fail with ErrManifestCorrupt or
// yield a manifest with one lifecycle flag per worker; it must never
// panic.
func FuzzDecodeManifest(f *testing.F) {
	dir := f.TempDir()
	opts := fleetOpts(2)
	opts.StopAfter = testStop
	opts.Chaos = func(worker, gen int, execs int64) fleet.ChaosAction {
		if worker == 1 && gen == 0 && execs >= 500 {
			return fleet.ChaosPanic
		}
		return fleet.ChaosNone
	}
	s := fleet.New(dir, opts)
	if err := s.Start(compileT(f), testOpts(), testMeta(), testSeeds); err != nil {
		f.Fatal(err)
	}
	if res, err := s.Run(); err != nil || !res.Interrupted {
		f.Fatalf("seed fleet: err=%v, want an interrupted run", err)
	}
	sealed, err := os.ReadFile(filepath.Join(dir, fleet.ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := campaign.Open(sealed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := fleet.DecodeManifest(campaign.Seal(payload))
		if err != nil {
			if !errors.Is(err, fleet.ErrManifestCorrupt) {
				t.Fatalf("decode failed with an untyped error: %v", err)
			}
			return
		}
		if m.Workers <= 0 || len(m.Retired) != m.Workers || len(m.Done) != m.Workers {
			t.Fatalf("decoded an inconsistent manifest: %d workers, %d retired and %d done flags",
				m.Workers, len(m.Retired), len(m.Done))
		}
	})
}
