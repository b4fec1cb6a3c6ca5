package core_test

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// Example compiles a MiniC program with a path-dependent bug, fuzzes
// it with the path-aware feedback through strategy.Run, and prints
// what was found. (Budgets are execution counts; the campaign is
// deterministic, which is what makes this an Example.)
func Example() {
	target, err := core.Compile(`
func main(input) {
    if (len(input) < 4) { return 0; }
    var mode = 0;
    if (input[0] == 'M' && input[1] == '1') { mode = 9; }
    if (input[2] == 'G' && input[3] == 'O') {
        var t = alloc(4);
        t[mode] = 1; // out of bounds only via the mode-setting path
        out(t[mode]);
    }
    return 0;
}`)
	if err != nil {
		panic(err)
	}
	out, err := strategy.Run(strategy.Path, target.Prog, strategy.Config{
		Opts:   fuzz.Options{Seed: 5},
		Budget: 60000,
		Seeds:  [][]byte{[]byte("abcd")},
	})
	if err != nil {
		panic(err)
	}
	keys := out.Report.BugKeys()
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k)
	}
	// Output:
	// main:8:heap-out-of-bounds-write
}

// ExampleTarget_PathProfiler shows the standalone profiler: exact
// per-path execution counts with regenerated block sequences.
func ExampleTarget_PathProfiler() {
	target, err := core.Compile(`
func main(input) {
    var n = 0;
    if (len(input) > 2) { n = 1; } else { n = 2; }
    return n;
}`)
	if err != nil {
		panic(err)
	}
	prof, err := target.PathProfiler()
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
