// The quickstart example walks through the paper's Figure 1: it
// compiles the motivating `foo` program, prints its Ball-Larus path
// numbering, and shows that the path-aware feedback retains the
// "rare-block" test case and converts it into the heap overflow, while
// edge coverage-guided fuzzing has a much harder time.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/strategy"
)

// fig1 transliterates the paper's Figure 1 to MiniC. The overflow at
// arr[l+j] triggers only when execution reached the rare j=3 block
// (l%4==0 && l>39) AND the input starts with 'h' — two conditions set
// on different paths through foo.
const fig1 = `
func foo(input, arr) {
    var j = 0;
    var l = len(input);
    if (l - 2 > 54 || l < 3) { return 0; }
    if (l % 4 == 0 && l > 39) {
        j = 3; // rare to reach
    } else {
        j = -2;
    }
    var c = input[0];
    if (c == 'h') {
        arr[l + j] = 7; // buffer overflow if reached via the rare block
    } else {
        j = abs(j);
        arr[j] = 0;
    }
    return 0;
}

func main(input) {
    var arr = alloc(54);
    return foo(input, arr);
}
`

func main() {
	prog, err := cfg.Compile(fig1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Ball-Larus numbering (Figure 1 machinery) ===")
	for _, ps := range instrument.PathReport(prog) {
		fmt.Printf("%-8s blocks=%-3d edges=%-3d acyclic paths=%-4d probes naive=%d optimized=%d\n",
			ps.Func, ps.Blocks, ps.Edges, ps.NumPaths, ps.ProbesNaive, ps.ProbesOptimal)
	}

	seeds := [][]byte{[]byte("hello"), []byte("abcd")}
	const budget = 120000

	fmt.Println("\n=== Fuzzing foo: path-aware vs edge coverage (pcguard) ===")
	for _, name := range []strategy.Name{strategy.Path, strategy.PCGuard} {
		found := 0
		firstAt := int64(-1)
		const trials = 3
		for seed := int64(1); seed <= trials; seed++ {
			out, err := strategy.Run(name, prog, strategy.Config{
				Opts:   fuzz.Options{Seed: seed},
				Budget: budget,
				Seeds:  seeds,
			})
			if err != nil {
				log.Fatal(err)
			}
			for key, rec := range out.Report.Bugs {
				fmt.Printf("  %-8s seed %d: found %s at exec %d\n", name, seed, key, rec.FoundAt)
				found++
				if firstAt < 0 || rec.FoundAt < firstAt {
					firstAt = rec.FoundAt
				}
			}
		}
		fmt.Printf("%-8s: triggered the overflow in %d/%d trials\n\n", name, found, trials)
	}
	fmt.Println("The path-aware fuzzer retains the test case that reaches line 19 via")
	fmt.Println("the rare block even though every edge was already covered; byte")
	fmt.Println("mutations then only need to produce a leading 'h' (condition (i)).")
}
