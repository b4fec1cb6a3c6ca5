package bytecode_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// arenaSrc allocates three arrays sized from the input, up to 6,136
// cells each, so the arena outgrows its first 4096-cell block mid-run,
// and a string literal between the first two. It writes a few cells of
// each array at input-chosen indices, one of them in [12, 16), so
// whichever array opens a new arena block leaves a written cell that
// the next run's first allocation covers (inputs are at most 12
// bytes). It then sums every cell of every array, weighted by index,
// so a cell left dirty by an earlier run changes the result. tail runs
// after the sum is written out; a run ends there or crashes there.
func arenaSrc(tail string) string {
	return `
func sum(arr) {
    var s = 0;
    var i = 0;
    while (i < len(arr)) {
        s = s + arr[i] * (i + 1);
        i = i + 1;
    }
    return s;
}
func main(input) {
    if (len(input) < 6) { return 0 - 1; }
    var a = alloc(16 + input[0] * 24);
    var s = "zero";
    var b = alloc(16 + input[1] * 24);
    var c = alloc(16 + input[2] * 24);
    a[12 + input[3] % 4] = input[4] + 1;
    b[12 + input[4] % 4] = input[5] + 1;
    c[12 + input[5] % 4] = input[3] + 1;
    b[(input[3] * 257 + input[4]) % len(b)] = input[0] + 2;
    c[len(c) - 1 - input[5] % 16] = input[1] + 3;
    var total = sum(input) + sum(a) * 3 + sum(s) * 5 + sum(b) * 7 + sum(c) * 11;
    out(total);
` + tail + `
    return total;
}
`
}

// TestArenaCellsReadZero pins the machine's zero-arena invariant:
// allocations hand out arena cells without clearing them, so a cell
// that an earlier run wrote and the reset missed would be read back
// by a later run. Random inputs run back to back on one machine must
// each give the interpreter's result. The second variant ends every
// run with an out-of-bounds write, so runs end in a crash after their
// writes. The last phase runs each input on a machine with an injected
// panic, which fires mid-sum after the writes, and then a clean input
// whose arrays cover the cells the panicked run wrote.
func TestArenaCellsReadZero(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inputs := make([][]byte, 300)
	for i := range inputs {
		inputs[i] = make([]byte, 6+rng.Intn(7))
		rng.Read(inputs[i])
	}
	variants := []struct{ name, tail string }{
		{"return", ""},
		{"oob-write", "    c[len(c) + input[0]] = 1;"},
	}
	for _, v := range variants {
		prog, err := cfg.Compile(arenaSrc(v.tail))
		if err != nil {
			t.Fatal(err)
		}
		d := newDiffPair(t, prog, instrument.FeedbackPath, 1<<12, vm.DefaultLimits())
		for i, in := range inputs {
			d.check(t, fmt.Sprintf("%s/%d", v.name, i), in)
		}
	}

	prog, err := cfg.Compile(arenaSrc(""))
	if err != nil {
		t.Fatal(err)
	}
	lim := vm.DefaultLimits()
	lim.InjectPanicAtStep = 1000
	d := newDiffPair(t, prog, instrument.FeedbackPath, 1<<12, lim)
	clean := make([]byte, 6)
	panics := 0
	for i, in := range inputs {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			d.mach.Run("main", in)
		}()
		d.check(t, fmt.Sprintf("clean after %d", i), clean)
	}
	if panics < len(inputs)/2 {
		t.Fatalf("%d of %d runs hit the injected panic; the clean-input phase tests little", panics, len(inputs))
	}
}

// allocSrc allocates the number of cells its first three input bytes
// spell (big-endian) and writes the first four, as a parser fills the
// front of a buffer sized from a header field.
const allocSrc = `
func main(input) {
    var n = input[0] * 65536 + input[1] * 256 + input[2];
    var a = alloc(n);
    a[0] = 1;
    a[1] = 2;
    a[2] = 3;
    a[3] = 4;
    return a[2] + a[n - 1];
}
`

// allocMachine lowers allocSrc for path feedback and returns a machine
// over it with the input asking for n cells.
func allocMachine(tb testing.TB, n int) (*bytecode.Machine, *coverage.Map, []byte) {
	tb.Helper()
	prog, err := cfg.Compile(allocSrc)
	if err != nil {
		tb.Fatal(err)
	}
	cp, ok := instrument.CompiledFor(instrument.FeedbackPath, prog, instrument.Config{})
	if !ok {
		tb.Fatal("no lowering for path feedback")
	}
	m := coverage.NewMap(1 << 12)
	return bytecode.NewMachine(cp, m, vm.DefaultLimits()), m, []byte{byte(n >> 16), byte(n >> 8), byte(n)}
}

// BenchmarkMachineAlloc prices one run that allocates an array and
// writes four of its cells, by array size. With the zero-arena
// invariant the run's cost does not grow with the size.
func BenchmarkMachineAlloc(b *testing.B) {
	for _, n := range []int{16, 4096, 1 << 20} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			mach, m, in := allocMachine(b, n)
			run := func() {
				m.Reset()
				if r := mach.Run("main", in); r.Status != vm.StatusOK || r.Ret != 3 {
					b.Fatalf("run: %+v", r)
				}
			}
			// The first two runs grow the arena to its steady size.
			run()
			run()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
