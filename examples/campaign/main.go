// The campaign example runs a scaled-down version of the paper's main
// experiment on three benchmark subjects: the four fuzzer
// configurations of Table II compete under an equal execution budget,
// and the example prints per-subject bug counts plus the pairwise set
// relations the paper reports.
//
// Run with: go run ./examples/campaign
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/evalharness"
	"repro/internal/strategy"
)

func main() {
	cfg := evalharness.Config{
		Subjects: []string{"flvmeta", "jhead", "mp3gain"},
		Fuzzers: []strategy.Name{
			strategy.Path, strategy.PCGuard, strategy.Cull, strategy.Opp,
		},
		Runs:     2,
		Budget:   60000,
		BaseSeed: 11,
		Progress: os.Stderr,
	}
	sr, err := evalharness.RunSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	sr.Table2(os.Stdout)
	fmt.Println()
	sr.Table3(os.Stdout)
	fmt.Println()
	sr.Figure3(os.Stdout)

	fmt.Println("\nPath-dependent bugs found per fuzzer (the paper's headline effect):")
	for _, f := range cfg.Fuzzers {
		n := 0
		for _, sub := range cfg.Subjects {
			for key := range sr.CumulativeBugs(sub, f) {
				if isPathDependent(sub, key) {
					n++
				}
			}
		}
		fmt.Printf("  %-8s %d\n", f, n)
	}
}

// isPathDependent checks a found bug key against the subject's planted
// inventory.
func isPathDependent(subject, key string) bool {
	// Keys look like "func:line:kind"; the inventory records the
	// function and kind of each path-dependent bug. Matching on the
	// function name is sufficient for these subjects.
	pd := map[string][]string{
		"flvmeta": {"parse_script:37"},
		"mp3gain": {"histogram"},
	}
	for _, marker := range pd[subject] {
		if strings.Contains(key, marker) {
			return true
		}
	}
	return false
}
