package instrument_test

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// ExampleProfiler shows the standalone profiler: exact per-path
// execution counts with regenerated block sequences.
func ExampleProfiler() {
	prog, err := cfg.Compile(`
func main(input) {
    var n = 0;
    if (len(input) > 2) { n = 1; } else { n = 2; }
    return n;
}`)
	if err != nil {
		panic(err)
	}
	prof, err := instrument.NewProfiler(prog)
	if err != nil {
		panic(err)
	}
	prof.Profile("main", []byte("long input"), vm.DefaultLimits())
	prof.Profile("main", []byte("x"), vm.DefaultLimits())
	prof.Profile("main", []byte("y"), vm.DefaultLimits())
	for _, pc := range prof.Counts() {
		fmt.Printf("path %d ran %d time(s)\n", pc.PathID, pc.Count)
	}
	// Output:
	// path 1 ran 2 time(s)
	// path 0 ran 1 time(s)
}
