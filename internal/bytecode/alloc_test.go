package bytecode_test

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// straightSrc exercises arithmetic, comparisons (cmp-observation
// recording), array loads, allocation, and output — every pooled
// resource in the machine — without loops or recursion.
const straightSrc = `
func main(input) {
    var n = len(input);
    var a = alloc(8);
    var x = 0;
    if (n > 2) {
        x = input[0] + input[1] * input[2];
    }
    a[0] = x;
    a[1] = x / 3;
    a[2] = x % 5;
    a[3] = min(x, 100);
    a[4] = max(x, -100);
    a[5] = abs(0 - x);
    out(a[0]);
    out(a[5]);
    return a[0] ^ a[1] ^ a[2] ^ a[3] ^ a[4] ^ a[5];
}
`

// TestZeroAllocSteadyState is the acceptance criterion for the pooled
// machine: after one warmup execution, running the straight-line
// program allocates nothing — for every supported feedback, map reset
// included.
func TestZeroAllocSteadyState(t *testing.T) {
	prog, err := cfg.Compile(straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("zero-alloc probe")
	for _, fb := range allFeedbacks {
		cp, ok := instrument.CompiledFor(fb, prog, instrument.Config{})
		if !ok {
			t.Fatalf("no lowering for %v", fb)
		}
		m := coverage.NewMap(1 << 12)
		mach := bytecode.NewMachine(cp, m, vm.DefaultLimits())
		run := func() {
			m.Reset()
			r := mach.Run("main", in)
			if r.Status != vm.StatusOK {
				t.Fatalf("%v: status %v", fb, r.Status)
			}
		}
		run() // warmup: grows the pools to their high-water marks
		if avg := testing.AllocsPerRun(200, run); avg != 0 {
			t.Errorf("%v: %v allocs/exec in steady state, want 0", fb, avg)
		}
	}
}

// TestZeroAllocWithCalls extends the steady-state guarantee to call
// frames: recursion up to a fixed depth must also be allocation-free
// once the slot stack has grown.
func TestZeroAllocWithCalls(t *testing.T) {
	const src = `
func fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main(input) {
    var n = 10;
    if (len(input) > 0) { n = input[0] % 15; }
    return fib(abs(n));
}
`
	prog, err := cfg.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := instrument.CompiledFor(instrument.FeedbackPath, prog, instrument.Config{})
	if !ok {
		t.Fatal("no lowering for path feedback")
	}
	m := coverage.NewMap(1 << 12)
	mach := bytecode.NewMachine(cp, m, vm.DefaultLimits())
	in := []byte{14}
	run := func() {
		m.Reset()
		mach.Run("main", in)
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("%v allocs/exec with recursion, want 0", avg)
	}
}

// TestZeroAllocLargeArray extends the steady-state guarantee to large
// allocations: once the arena has grown, a run that allocates 2^20
// cells allocates nothing.
func TestZeroAllocLargeArray(t *testing.T) {
	mach, m, in := allocMachine(t, 1<<20)
	run := func() {
		m.Reset()
		if r := mach.Run("main", in); r.Status != vm.StatusOK {
			t.Fatalf("status %v", r.Status)
		}
	}
	run() // warmup: the input copy and the array outgrow two arena blocks
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("%v allocs/exec allocating 2^20 cells, want 0", avg)
	}
}

// growSrc calls a function with 2^10 acyclic paths 20n times on
// distinct arguments, logging a comparison per loop iteration, and
// then recurses 3n frames deep, for n the first input byte.
var growSrc = diamondsSrc("d", 10) + `
func dive(n) {
    if (n <= 0) { return 0; }
    return 1 + dive(n - 1);
}
func main(input) {
    var n = input[0];
    var s = 0;
    var i = 0;
    while (i < n * 20) {
        s = s + d(i * 7);
        i = i + 1;
    }
    return s + dive(n * 3);
}
`

// TestZeroAllocAfterGrowth pins where the machine's pools grow: only
// on the dispatch loop's slow path, and only past their high-water
// marks. A machine warmed on a small run then runs an input that
// touches more map cells (over 256 paths under path feedback), nests
// more frames and logs more comparisons than any run before it. That
// run grows the pools; running it again allocates nothing.
func TestZeroAllocAfterGrowth(t *testing.T) {
	prog, err := cfg.Compile(growSrc)
	if err != nil {
		t.Fatal(err)
	}
	small, big := []byte{0}, []byte{15}
	for _, fb := range allFeedbacks {
		cp, ok := instrument.CompiledFor(fb, prog, instrument.Config{})
		if !ok {
			t.Fatalf("no lowering for %v", fb)
		}
		m := coverage.NewMap(1 << 12)
		mach := bytecode.NewMachine(cp, m, vm.DefaultLimits())
		run := func(in []byte) vm.Result {
			m.Reset()
			r := mach.Run("main", in)
			if r.Status != vm.StatusOK {
				t.Fatalf("%v: input %v: status %v", fb, in, r.Status)
			}
			return r
		}
		r := run(small)
		cells, cmps := m.CountNonZero(), len(r.Cmps)
		r = run(big)
		if len(r.Cmps) <= cmps || m.CountNonZero() <= cells {
			t.Fatalf("%v: the big run logged %d comparisons and touched %d cells, the small one %d and %d", fb, len(r.Cmps), m.CountNonZero(), cmps, cells)
		}
		if fb == instrument.FeedbackPath && m.CountNonZero() <= 256 {
			t.Fatalf("path: the big run touched %d cells, want over 256", m.CountNonZero())
		}
		if avg := testing.AllocsPerRun(20, func() { run(big) }); avg != 0 {
			t.Errorf("%v: %v allocs/exec repeating the run that grew the pools, want 0", fb, avg)
		}
	}
}
