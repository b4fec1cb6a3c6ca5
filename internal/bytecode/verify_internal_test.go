package bytecode

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/subjects"
)

// hashPathSpec lowers every function of prog as a hash-mode path
// function: an entry push, a probe on every edge (so every branch side
// gets a trampoline and every back edge an opProbeBack) and a record at
// every return.
func hashPathSpec(prog *cfg.Program) Spec {
	fns := make([]FnSpec, len(prog.Funcs))
	for i := range fns {
		fns[i] = FnSpec{HashMode: true, Salt: uint32(i + 1)}
	}
	return Spec{Kind: ProbePath, Fns: fns}
}

// findInstr returns the function and pc of the first instruction, in
// code order, for which ok holds; body restricts the search to block
// code, before a function's trampolines.
func findInstr(t *testing.T, c *compiler, body bool, ok func(in *instr) bool) (fi int, pc int32) {
	t.Helper()
	for fi := range c.out.fns {
		end := c.layouts[fi].end
		if tramps := c.layouts[fi].trampStart; body && len(tramps) > 0 {
			end = tramps[0]
		}
		for pc := c.out.fns[fi].entryPC; pc < end; pc++ {
			if ok(&c.out.code[pc]) {
				return fi, pc
			}
		}
	}
	t.Fatal("no instruction to corrupt")
	return 0, 0
}

// TestVerifierRejectsCorruptCode proves the structural verifier that
// runs on every compile rejects bad code: each case lowers cflow (and,
// for the fused cases, fuses it), corrupts one instruction, and
// requires a diagnostic naming the function and the broken invariant.
func TestVerifierRejectsCorruptCode(t *testing.T) {
	prog := subjects.Get("cflow").MustProgram()
	cases := []struct {
		name    string
		fused   bool
		want    string
		corrupt func(t *testing.T, c *compiler) (fi int)
	}{
		{
			name: "block-jump-off-block-start",
			want: "jmp target",
			corrupt: func(t *testing.T, c *compiler) int {
				fi, pc := findInstr(t, c, true, func(in *instr) bool { return in.op == opJmp })
				c.out.code[pc].a++ // inside the target block, after its start
				return fi
			},
		},
		{
			name: "body-slot-outside-frame",
			want: "outside frame",
			corrupt: func(t *testing.T, c *compiler) int {
				fi, pc := findInstr(t, c, true, func(in *instr) bool { return in.op == opConst })
				c.out.code[pc].dst = c.out.fns[fi].frameSize
				return fi
			},
		},
		{
			name: "non-probe-in-trampoline",
			want: "non-probe opcode",
			corrupt: func(t *testing.T, c *compiler) int {
				for fi, lay := range c.layouts {
					if len(lay.trampStart) > 0 {
						c.out.code[lay.trampStart[0]].op = opNop
						return fi
					}
				}
				t.Fatal("no trampoline")
				return 0
			},
		},
		{
			name: "back-restart-index-out-of-range",
			want: "restart index",
			corrupt: func(t *testing.T, c *compiler) int {
				fi, pc := findInstr(t, c, false, func(in *instr) bool { return in.op == opProbeBack })
				c.out.code[pc].b = int32(len(c.out.backVals))
				return fi
			},
		},
		{
			name:  "fused-jump-off-block-start",
			fused: true,
			want:  "jump target",
			corrupt: func(t *testing.T, c *compiler) int {
				fi, pc := findInstr(t, c, false, func(in *instr) bool { return in.op == opStepBr })
				c.out.code[pc].b++ // one past the then-side's start
				return fi
			},
		},
		{
			name:  "callpush-callee-without-push",
			fused: true,
			want:  "does not start with opProbePush",
			corrupt: func(t *testing.T, c *compiler) int {
				fi, pc := findInstr(t, c, false, func(in *instr) bool { return in.op == opCallPush })
				c.out.code[c.out.fns[c.out.code[pc].imm].entryPC].op = opNop
				return fi
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := lower(prog, hashPathSpec(prog))
			check := c.verify
			if tc.fused {
				if err := c.verify(); err != nil {
					t.Fatalf("uncorrupted code rejected: %v", err)
				}
				c.fuseAll()
				check = c.verifyFused
			}
			if err := check(); err != nil {
				t.Fatalf("uncorrupted code rejected: %v", err)
			}
			fi := tc.corrupt(t, c)
			err := check()
			if err == nil {
				t.Fatal("corrupted code verified")
			}
			for _, part := range []string{fmt.Sprintf("func %q", c.out.fns[fi].name), tc.want} {
				if !strings.Contains(err.Error(), part) {
					t.Fatalf("diagnostic %q does not mention %q", err, part)
				}
			}
		})
	}
}
