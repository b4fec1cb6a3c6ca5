// Fleet manifest: the sealed, atomically rewritten file that composes
// per-worker campaign checkpoints into one resumable fleet. It records
// the fleet shape (worker count, restart budget), quarantined poison
// inputs, and worker lifecycle flags. Together with each worker's own
// checkpoint directory it is everything Attach needs to resume a fleet:
// each worker resumes as the single durable campaign it is.
package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/fuzz"
)

// ManifestName is the fleet manifest filename under the fleet state
// directory.
const ManifestName = "fleet.pafm"

// ErrManifestCorrupt reports a sealed manifest whose payload does not
// decode, or decodes to a fleet its own fields contradict.
var ErrManifestCorrupt = errors.New("fleet: manifest corrupt")

// ErrSynced reports a fleet an older build ran with corpus sync (a
// manifest with SyncEvery > 0): sync is gone, and resuming the fleet
// without it would not continue the same campaign.
var ErrSynced = errors.New("fleet: the fleet ran with corpus sync, which this version no longer has; it cannot be resumed")

// Manifest is the fleet-level durable state.
type Manifest struct {
	// Fleet shape; Attach validates resumes against these rather than
	// trusting flags to be re-specified consistently.
	Workers int
	// SyncEvery is the corpus-sync cadence an older build recorded;
	// this build writes 0, and Attach refuses a fleet that synced
	// (ErrSynced).
	SyncEvery   int64
	MaxRestarts int
	// Meta is the base campaign identity (Seed is the fleet seed;
	// per-worker seeds are derived from it, see WorkerSeed).
	Meta campaign.Meta
	// Quarantine lists poison-input findings, canonically sorted.
	Quarantine []fuzz.PoisonRec
	// Lifecycle counters and flags, one flag per worker.
	Restarts int
	Wedges   int
	Retired  []bool
	Done     []bool
}

// Encode serializes the manifest into a sealed, checksummed frame
// (campaign.Seal), so torn manifest writes are detected on load.
func (m *Manifest) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, err
	}
	return campaign.Seal(buf.Bytes()), nil
}

// DecodeManifest validates and decodes a sealed manifest. A payload
// that does not decode, or whose per-worker flags do not hold one entry
// per worker, fails with ErrManifestCorrupt; so a hostile worker count
// is bounded by the payload's size.
func DecodeManifest(data []byte) (*Manifest, error) {
	payload, err := campaign.Open(data)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: payload undecodable: %w", ErrManifestCorrupt, err)
	}
	if m.Workers <= 0 || len(m.Retired) != m.Workers || len(m.Done) != m.Workers {
		return nil, fmt.Errorf("%w: %d workers, %d retired and %d done flags",
			ErrManifestCorrupt, m.Workers, len(m.Retired), len(m.Done))
	}
	return &m, nil
}

// LoadManifest reads the fleet manifest under dir. The error wraps
// campaign.ErrNoCheckpoint semantics loosely: a missing file simply
// means "not a fleet state directory".
func LoadManifest(fs campaign.FS, dir string) (*Manifest, error) {
	data, err := fs.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return DecodeManifest(data)
}

// HasManifest reports whether dir holds a fleet manifest (used by
// pafuzz -resume to pick fleet vs single-campaign resume).
func HasManifest(fs campaign.FS, dir string) bool {
	_, err := fs.ReadFile(filepath.Join(dir, ManifestName))
	return err == nil
}
