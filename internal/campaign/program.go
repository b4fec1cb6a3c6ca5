package campaign

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cfg"
	"repro/internal/subjects"
)

// ErrSourceChanged reports that a source-file campaign's source no
// longer hashes to the SHA-256 recorded when the campaign started:
// resuming it, or mapping its coverage cells back to source lines,
// against different code would not be deterministic.
var ErrSourceChanged = errors.New("campaign: source changed since the campaign started")

// Program compiles the program m describes — the benchmark subject it
// names, else its MiniC source file — and returns it with the default
// seed corpus: the subject's seeds, or one placeholder seed for a
// source file. A new source campaign (empty SourceSum) records the
// source's SHA-256 in m; a campaign that recorded one must still match
// it, or the error wraps ErrSourceChanged.
func (m *Meta) Program() (*cfg.Program, [][]byte, error) {
	var (
		prog  *cfg.Program
		seeds [][]byte
		err   error
	)
	switch {
	case m.Subject != "":
		sub := subjects.Get(m.Subject)
		if sub == nil {
			return nil, nil, fmt.Errorf("campaign: unknown subject %q", m.Subject)
		}
		prog, err = sub.Program()
		seeds = sub.Seeds
	case m.Source != "":
		prog, err = m.compileSource()
		seeds = [][]byte{[]byte("seed")}
	default:
		return nil, nil, errors.New("campaign: neither a subject nor a source file is named")
	}
	if err != nil {
		return nil, nil, err
	}
	if entry := cmp.Or(m.Entry, "main"); prog.Func(entry) == nil {
		return nil, nil, fmt.Errorf("campaign: program has no %q function", entry)
	}
	return prog, seeds, nil
}

// Label names the campaign as "<subject or source file>/<fuzzer>",
// e.g. "flvmeta/path": the banner of its stats files and reports.
func (m *Meta) Label() string {
	return cmp.Or(m.Subject, filepath.Base(m.Source)) + "/" + m.Fuzzer
}

// compileSource reads, checks and compiles m.Source.
func (m *Meta) compileSource() (*cfg.Program, error) {
	src, err := os.ReadFile(m.Source)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(src)
	got := hex.EncodeToString(sum[:])
	switch m.SourceSum {
	case "":
		m.SourceSum = got
	case got:
	default:
		return nil, fmt.Errorf("%w: %s has sha256 %s, the campaign recorded %s", ErrSourceChanged, m.Source, got, m.SourceSum)
	}
	prog, err := cfg.Compile(string(src))
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", m.Source, err)
	}
	return prog, nil
}
