package bytecode_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/subjects"
)

// TestVerifierCatchesBrokenPass proves a broken IR pass is caught
// instead of lowering to silently wrong code: each case corrupts
// cflow's main the way a broken pass would and requires a diagnostic
// naming the function, the block and the violated invariant. A jump
// out of range is rejected by the structural verifier every compile
// runs. A use before assignment lowers to well-formed bytecode, so the
// compile accepts it and the IR verifier (palint -verify) is the gate.
func TestVerifierCatchesBrokenPass(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, f *cfg.Func)
		// compile is part of the compile's diagnostic, "" when the
		// compile accepts the corruption; ir is part of the IR
		// verifier's.
		compile, ir string
	}{
		{
			name: "jump-target-out-of-range",
			mutate: func(t *testing.T, f *cfg.Func) {
				for b := range f.Blocks {
					if f.Blocks[b].Term.Kind == cfg.TermJmp {
						f.Blocks[b].Term.Then = len(f.Blocks) + 7
						return
					}
				}
				t.Fatal("no jmp block")
			},
			compile: "jmp target pc -1",
			ir:      "out of range",
		},
		{
			name: "use-before-assignment",
			mutate: func(t *testing.T, f *cfg.Func) {
				bad := cfg.Instr{Op: cfg.OpMove, Dst: 0, A: f.FrameSize - 1}
				f.Blocks[0].Instrs = append([]cfg.Instr{bad}, f.Blocks[0].Instrs...)
			},
			ir: "not definitely assigned",
		},
	}
	spec := bytecode.Spec{Kind: bytecode.ProbeEdge}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A private compile, so the corruption stays out of the
			// subject's shared program.
			prog, err := cfg.Compile(subjects.Get("cflow").Source)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bytecode.CompileChecked(prog, spec); err != nil {
				t.Fatalf("uncorrupted program rejected by the compile: %v", err)
			}
			if err := analysis.Verify(prog); err != nil {
				t.Fatalf("uncorrupted program rejected by the IR verifier: %v", err)
			}
			f := prog.Func("main")
			tc.mutate(t, f)

			_, err = bytecode.CompileChecked(prog, spec)
			if tc.compile == "" {
				if err != nil {
					t.Fatalf("compile rejected a corruption that lowers to well-formed bytecode: %v", err)
				}
			} else {
				requireDiagnostic(t, err, tc.compile)
			}
			requireDiagnostic(t, analysis.VerifyFunc(f), tc.ir)
		})
	}
}

// requireDiagnostic fails unless err names cflow's main, a block and
// the invariant want.
func requireDiagnostic(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not detected (want %q)", want)
	}
	for _, part := range []string{`func "main"`, "block b", want} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("diagnostic %q does not mention %q", err, part)
		}
	}
}
