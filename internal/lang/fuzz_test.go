package lang_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/lang"
	"repro/internal/vm"
)

// Native Go fuzz targets: the MiniC frontend itself is fuzzed — the
// compiler substrate of a fuzzing paper had better survive its own
// medicine. Under plain `go test` these run their seed corpora as
// regression tests; `go test -fuzz FuzzParse ./internal/lang` explores
// further.

var fuzzSeeds = []string{
	"",
	"func main(input) { return 0; }",
	"func f(a,b) { return a+b; } func main(input) { return f(1,2); }",
	`func main(input) { var s = "str"; while (1) { break; } return s[0]; }`,
	"func main(input) { if (1 && 0 || 2) { out(1); } else { out(2); } return 0; }",
	"func main(input) { for (var i = 0; i < 9; i = i + 1) { continue; } return 0; }",
	"func main(input) { return 'x' + 0x7fffffffffffffff; }",
	"func main(input) { return -(-(-1)); }",
	"}{)(][;;;", "func", "func main(", "/* unterminated",
	"func main(input) { a[0] = a[a[a[0]]]; }",
	"func main(input) { return 1 <<<< 2; }",
	"\x00\xff\xfe", "'", `"`, "//",
}

// engineSeeds reach what the engines implement apart: calls, heap
// arrays, strings, output, builtins, a first comparison that no branch
// consumes (the bytecode engine fuses the others), and crash reports.
var engineSeeds = []string{
	`func f(n) { if (n < 1) { return 0; } return n + f(n - 1); }
func main(input) {
    var a = alloc(len(input) + 8);
    var i = 0;
    while (i < len(input)) {
        a[i] = input[i] * 3;
        if (a[i] == 'x') { out(i); }
        i = i + 1;
    }
    var s = "ab";
    return f(len(input)) + a[0] + s[1] + min(a[1], 9) + max(a[2] >> 1, a[3] << 2) + abs(0 - a[4]) % 7;
}`,
	`func main(input) {
    var lt = input[0] < input[1];
    var eq = input[2] == input[3];
    out(lt + eq);
    return lt * 2 + eq;
}`,
	`func main(input) {
    var a = alloc(input[0]);
    a[input[1]] = 1;
    assert(input[2] != 'z');
    return 100 / (input[3] - 'a') + a[len(a) - 1];
}`,
}

// FuzzParse: the parser must never panic and must either error or
// produce a printable program whose print re-parses.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		prog, err := lang.Parse(src)
		if err != nil || prog == nil {
			return
		}
		printed := lang.Print(prog)
		reparsed, err := lang.Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\noriginal: %q\nprinted:\n%s", err, src, printed)
		}
		// Print is a fixpoint under reparse: one round canonicalises.
		if again := lang.Print(reparsed); again != printed {
			t.Fatalf("print not stable under reparse:\noriginal: %q\nfirst:\n%s\nsecond:\n%s", src, printed, again)
		}
	})
}

// FuzzCompileAndRun: whatever parses and checks must lower and execute
// without panicking — the VM's sanitizer turns all misbehaviour into
// reports, never into Go-level faults — and the compiled engine must
// agree with the interpreter. Each program that compiles is lowered
// for every feedback and run on a bytecode machine, once at a 2^16-step
// budget and once under limits tight enough that the machine's slow
// paths fire (call depth, comparison log, heap cells), each time twice
// on one machine: with its pools empty, then with the pools the first
// run grew. Status, return value, steps, output, comparison log, crash
// report and map bytes must equal vm.Run's under the same feedback's
// tracer.
func FuzzCompileAndRun(f *testing.F) {
	for _, s := range append(fuzzSeeds, engineSeeds...) {
		f.Add(s, []byte("input"))
	}
	lim := vm.DefaultLimits()
	lim.MaxSteps = 1 << 16 // keep pathological programs quick
	tight := lim
	tight.MaxDepth, tight.MaxCmpObs, tight.MaxHeapCells = 3, 5, 40
	f.Fuzz(func(t *testing.T, src string, input []byte) {
		if len(src) > 1<<12 || len(input) > 1<<10 {
			return
		}
		prog, err := cfg.Compile(src)
		if err != nil {
			return
		}
		res := vm.Run(prog, "main", input, vm.NullTracer{}, lim)
		// Determinism is part of the contract.
		res2 := vm.Run(prog, "main", input, vm.NullTracer{}, lim)
		if res.Status != res2.Status || res.Ret != res2.Ret {
			t.Fatalf("nondeterministic execution of fuzzed program:\n%s", src)
		}
		for _, fb := range feedbacks {
			cp, ok := instrument.Lower(fb, prog)
			if !ok {
				t.Fatalf("no %v lowering", fb)
			}
			for _, l := range []vm.Limits{lim, tight} {
				if msg := compareEngines(prog, cp, fb, input, l); msg != "" {
					t.Fatalf("%v, limits %+v: %s\nprogram:\n%s\ninput: %q", fb, l, msg, src, input)
				}
			}
		}
	})
}

// feedbacks are the five feedbacks, each with its tracer and lowering.
var feedbacks = []instrument.Feedback{
	instrument.FeedbackEdge,
	instrument.FeedbackPath,
	instrument.FeedbackPathAFL,
	instrument.FeedbackPath2,
	instrument.FeedbackSelective,
}

// compareEngines runs input under the interpreter with fb's tracer and
// twice on one machine over cp, first with its pools empty and then
// with the pools the first run grew, and describes the first
// observable that differs, or returns "".
func compareEngines(prog *cfg.Program, cp *bytecode.Program, fb instrument.Feedback, input []byte, lim vm.Limits) string {
	m1, m2 := coverage.NewMap(1<<12), coverage.NewMap(1<<12)
	tr, err := instrument.New(fb, prog, m1, instrument.Config{})
	if err != nil {
		return err.Error()
	}
	r1 := vm.Run(prog, "main", input, tr, lim)
	mach := bytecode.NewMachine(cp, m2, lim)
	for run := 1; run <= 2; run++ {
		m2.Reset()
		r2 := mach.Run("main", input)
		switch {
		case r1.Status != r2.Status:
			return fmt.Sprintf("run %d: status interp=%v bytecode=%v", run, r1.Status, r2.Status)
		case r1.Ret != r2.Ret:
			return fmt.Sprintf("run %d: ret interp=%d bytecode=%d", run, r1.Ret, r2.Ret)
		case r1.Steps != r2.Steps:
			return fmt.Sprintf("run %d: steps interp=%d bytecode=%d", run, r1.Steps, r2.Steps)
		case !slices.Equal(r1.Output, r2.Output):
			return fmt.Sprintf("run %d: output interp=%v bytecode=%v", run, r1.Output, r2.Output)
		case !slices.Equal(r1.Cmps, r2.Cmps):
			return fmt.Sprintf("run %d: comparison log interp=%v bytecode=%v", run, r1.Cmps, r2.Cmps)
		case !reflect.DeepEqual(r1.Crash, r2.Crash):
			return fmt.Sprintf("run %d: crash interp=%+v bytecode=%+v", run, r1.Crash, r2.Crash)
		case !bytes.Equal(m1.Bytes(), m2.Bytes()):
			return fmt.Sprintf("run %d: coverage maps differ", run)
		}
	}
	return ""
}

// FuzzLexer: the lexer terminates and never panics on arbitrary bytes.
func FuzzLexer(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			return
		}
		toks, _ := lang.LexAll(string(data))
		if len(toks) == 0 {
			t.Fatal("LexAll returned no tokens (EOF missing)")
		}
		if toks[len(toks)-1].Kind != lang.EOF {
			t.Fatal("token stream does not end with EOF")
		}
	})
}
