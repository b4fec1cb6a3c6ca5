package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"repro/internal/fuzz"
	"repro/internal/journal"
)

// Version is the checkpoint format version; a bump invalidates older
// checkpoints (Open rejects them, and resume falls back to a fresh
// campaign).
const Version = 1

// magic identifies sealed campaign files. 8 bytes, never reused across
// incompatible layouts.
var magic = []byte("PAFCKPT\x00")

// Frame layout: magic (8) | version (4, BE) | payload length (8, BE) |
// SHA-256 of payload (32) | payload. The length field detects
// truncation before the checksum is even computed; the checksum detects
// corruption anywhere in the payload.
const headerLen = 8 + 4 + 8 + sha256.Size

// Seal frames payload with magic, version, length, and checksum. The
// output is what gets written to disk; Open is its inverse.
func Seal(payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload))
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint32(buf, Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	return buf
}

// Open validates a sealed file and returns its payload. It fails on a
// wrong magic, an unsupported version, a truncated or over-long file,
// and a checksum mismatch — every corruption mode the fault-injection
// tests produce.
func Open(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("campaign: sealed file truncated: %d bytes, want at least %d", len(data), headerLen)
	}
	if !bytes.Equal(data[:8], magic) {
		return nil, errors.New("campaign: bad magic (not a campaign checkpoint)")
	}
	ver := binary.BigEndian.Uint32(data[8:12])
	if ver != Version {
		return nil, fmt.Errorf("campaign: unsupported checkpoint version %d (want %d)", ver, Version)
	}
	plen := binary.BigEndian.Uint64(data[12:20])
	payload := data[headerLen:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("campaign: payload is %d bytes, header says %d (truncated or overwritten)", len(payload), plen)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[20:20+sha256.Size]) {
		return nil, errors.New("campaign: checksum mismatch (corrupt checkpoint)")
	}
	return payload, nil
}

// Meta identifies the campaign a checkpoint belongs to, with enough
// information for `pafuzz -resume` to reconstruct the target and
// options without re-specifying flags.
type Meta struct {
	// Subject is the benchmark subject name ("" when fuzzing a source
	// file).
	Subject string
	// Source is the path of the fuzzed MiniC source file ("" for
	// subjects); SourceSum is the hex SHA-256 of its contents, checked
	// on resume so a silently edited source is rejected.
	Source    string
	SourceSum string
	// Fuzzer is the strategy configuration name.
	Fuzzer string
	// Campaign options that must match for a resume to be
	// deterministic.
	Seed    int64
	Budget  int64
	MapSize int
	Entry   string
	// Guide marks a campaign that ran with the since-removed
	// analysis-guided mode. Program refuses such a campaign
	// (ErrGuided) rather than resume it unguided; new campaigns leave
	// it false.
	Guide bool
}

// Checkpoint bundles campaign identity and a full state snapshot.
type Checkpoint struct {
	Meta Meta
	Snap *fuzz.Snapshot
}

// Encode serializes the checkpoint into a sealed frame.
func (c *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, err
	}
	return Seal(buf.Bytes()), nil
}

// DecodeCheckpoint validates and decodes one sealed checkpoint file.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	payload, err := Open(data)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&c); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint payload undecodable: %w", err)
	}
	if c.Snap == nil {
		return nil, errors.New("campaign: checkpoint has no snapshot")
	}
	return &c, nil
}

// checkpointsDir is the subdirectory of a campaign state dir holding
// sealed checkpoints.
const checkpointsDir = "checkpoints"

func checkpointName(execs int64) string {
	return fmt.Sprintf("ckpt-%016d.pafc", execs)
}

// writeCheckpoint seals and atomically writes ck under dir, then prunes
// old checkpoints down to keep (newest first). Prune failures are
// ignored: stale checkpoints are harmless, a failed write is not.
func writeCheckpoint(fs FS, dir string, ck *Checkpoint, keep int) error {
	data, err := ck.Encode()
	if err != nil {
		return err
	}
	cdir := join(dir, checkpointsDir)
	if err := fs.MkdirAll(cdir); err != nil {
		return err
	}
	path := join(cdir, checkpointName(ck.Snap.Stats.Execs))
	if err := WriteFileAtomic(fs, path, data); err != nil {
		return err
	}
	if names, err := listCheckpoints(fs, dir); err == nil && len(names) > keep {
		for _, name := range names[keep:] {
			fs.Remove(join(cdir, name))
		}
	}
	return nil
}

// listCheckpoints returns checkpoint filenames under dir, newest (by
// exec count, which the zero-padded name sorts by) first.
func listCheckpoints(fs FS, dir string) ([]string, error) {
	names, err := fs.ReadDir(join(dir, checkpointsDir))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range names {
		if len(n) > 5 && n[:5] == "ckpt-" && n[len(n)-5:] == ".pafc" {
			out = append(out, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	return out, nil
}

// ErrNoCheckpoint reports that a state directory holds no usable
// checkpoint (none written yet, or every one corrupt).
var ErrNoCheckpoint = errors.New("campaign: no usable checkpoint in state directory")

// LoadLatest returns the newest valid checkpoint under dir. Truncated,
// corrupt, or unreadable checkpoints are skipped — with a human-readable
// note appended to warnings — and the next older one is tried, so a
// crash during (or just after) a checkpoint write never strands the
// campaign. ErrNoCheckpoint is returned when nothing valid remains.
func LoadLatest(fs FS, dir string) (ck *Checkpoint, warnings []string, err error) {
	names, err := listCheckpoints(fs, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (%v)", ErrNoCheckpoint, err)
	}
	for _, name := range names {
		path := join(dir, checkpointsDir, name)
		data, rerr := fs.ReadFile(path)
		if rerr != nil {
			warnings = append(warnings, fmt.Sprintf("skipping %s: %v", name, rerr))
			continue
		}
		c, derr := DecodeCheckpoint(data)
		if derr != nil {
			warnings = append(warnings, fmt.Sprintf("skipping %s: %v", name, derr))
			continue
		}
		return c, warnings, nil
	}
	return nil, warnings, ErrNoCheckpoint
}

// CanonicalReport encodes a report into deterministic bytes: map-typed
// fields are flattened in sorted key order. Two campaigns are
// byte-identical — the determinism guarantee checkpoint/resume makes —
// exactly when their canonical encodings are equal.
func CanonicalReport(r *fuzz.Report) ([]byte, error) {
	type bugRec struct {
		Key string
		Rec *fuzz.CrashRec
	}
	flat := struct {
		Stats      fuzz.Stats
		QueueLen   int
		Queue      [][]byte
		FavoredLen int
		Crashes    []*fuzz.CrashRec
		Bugs       []bugRec
		MapCount   int
		Faults     []fuzz.InternalFault
		Poison     []fuzz.PoisonRec
		Corpus     []journal.CorpusMeta
	}{}
	if r != nil {
		flat.Stats = r.Stats
		flat.QueueLen = r.QueueLen
		flat.Queue = r.Queue
		flat.FavoredLen = r.FavoredLen
		flat.Crashes = r.Crashes
		flat.MapCount = r.MapCount
		flat.Faults = r.Faults
		flat.Poison = r.Poison
		flat.Corpus = r.Corpus
		for _, k := range r.BugKeys() {
			flat.Bugs = append(flat.Bugs, bugRec{Key: k, Rec: r.Bugs[k]})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&flat); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
