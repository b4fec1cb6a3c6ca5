package strategy_test

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/strategy"
)

// ExampleRun compiles a MiniC program with a path-dependent bug, fuzzes
// it with the path-aware feedback, and prints what was found.
// (Budgets are execution counts; the campaign is deterministic, which
// is what makes this an Example.)
func ExampleRun() {
	prog, err := cfg.Compile(`
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
	out, err := strategy.Run(strategy.Path, prog, strategy.Config{
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
