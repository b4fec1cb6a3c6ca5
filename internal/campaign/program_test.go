package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetaProgram covers the one mapping from a campaign description to
// the program it fuzzes, for new and resumed campaigns alike.
func TestMetaProgram(t *testing.T) {
	const src = "func main(input) { return len(input); }\n"
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(src))
	recorded := hex.EncodeToString(sum[:])
	edited := filepath.Join(dir, "edited.mc")
	if err := os.WriteFile(edited, []byte(src+"// edited\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const noMainSrc = "func f(a) { return a; }\n"
	noMain := filepath.Join(dir, "nomain.mc")
	if err := os.WriteFile(noMain, []byte(noMainSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	noMainSum := sha256.Sum256([]byte(noMainSrc))

	for _, tc := range []struct {
		name    string
		meta    Meta
		wantSum string // SourceSum after the call
		wantErr string // substring; "" means success
		is      error  // sentinel the error must wrap, if any
	}{
		{name: "subject compiles", meta: Meta{Subject: "flvmeta"}},
		{name: "unknown subject", meta: Meta{Subject: "nope"}, wantErr: `unknown subject "nope"`},
		{name: "new source records its sha256", meta: Meta{Source: path}, wantSum: recorded},
		{name: "edited source is refused", meta: Meta{Source: edited, SourceSum: recorded}, wantSum: recorded,
			wantErr: "changed since the campaign started", is: ErrSourceChanged},
		{name: "source without main is refused", meta: Meta{Source: noMain}, wantSum: hex.EncodeToString(noMainSum[:]),
			wantErr: `program has no "main" function`},
		{name: "neither subject nor source", meta: Meta{Fuzzer: "path"}, wantErr: "neither a subject nor a source file"},
		{name: "guided campaign is refused", meta: Meta{Subject: "flvmeta", Guide: true}, wantErr: "analysis-guided", is: ErrGuided},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta := tc.meta
			prog, seeds, err := meta.Program()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if tc.is != nil && !errors.Is(err, tc.is) {
					t.Fatalf("err = %v, want it to wrap %v", err, tc.is)
				}
				if prog != nil {
					t.Fatal("a program was returned with the error")
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if prog.Func("main") == nil || len(seeds) == 0 {
					t.Fatalf("program without main or empty seed corpus (%d seeds)", len(seeds))
				}
			}
			if meta.SourceSum != tc.wantSum {
				t.Fatalf("SourceSum = %q, want %q", meta.SourceSum, tc.wantSum)
			}
		})
	}
}
