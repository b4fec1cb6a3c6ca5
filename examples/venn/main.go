// The venn example reproduces the paper's Figure 3 analysis on a single
// subject: it fuzzes gdk with the baseline path-aware feedback and the
// pcguard edge baseline, prints the Venn decomposition of the unique
// bugs, and lists which concrete bugs each side found exclusively —
// making the "more pervasive exploration of already-covered code"
// effect tangible.
//
// Run with: go run ./examples/venn
package main

import (
	"fmt"
	"log"

	"repro/internal/fuzz"
	"repro/internal/strategy"
	"repro/internal/subjects"
	"repro/internal/triage"
)

func main() {
	sub := subjects.Get("gdk")
	prog, err := sub.Program()
	if err != nil {
		log.Fatal(err)
	}

	const runs = 3
	const budget = 80000
	bugsOf := func(name strategy.Name) triage.Set[string] {
		all := triage.NewSet[string]()
		for seed := int64(1); seed <= runs; seed++ {
			out, err := strategy.Run(name, prog, strategy.Config{
				Opts:   fuzz.Options{Seed: seed},
				Budget: budget,
				Seeds:  sub.Seeds,
			})
			if err != nil {
				log.Fatal(err)
			}
			for k := range out.Report.Bugs {
				all.Add(k)
			}
		}
		return all
	}

	fmt.Printf("fuzzing %s with %d runs x %d execs per configuration...\n", sub.Name, runs, budget)
	path := bugsOf(strategy.Path)
	pcg := bugsOf(strategy.PCGuard)

	v := triage.Venn(path, pcg)
	fmt.Printf("\nVenn (unique bugs): path-only %d | common %d | pcguard-only %d\n",
		v.OnlyA, v.Common, v.OnlyB)

	fmt.Println("\nbugs only the path-aware fuzzer found:")
	for _, k := range triage.Sorted(triage.Subtract(path, pcg)) {
		fmt.Printf("  %s%s\n", k, pathDepNote(sub, k))
	}
	fmt.Println("bugs only pcguard found:")
	for _, k := range triage.Sorted(triage.Subtract(pcg, path)) {
		fmt.Printf("  %s\n", k)
	}
	fmt.Println("bugs both found:")
	for _, k := range triage.Sorted(triage.Intersect(path, pcg)) {
		fmt.Printf("  %s\n", k)
	}
}

// pathDepNote annotates keys that correspond to planted path-dependent
// bugs.
func pathDepNote(sub *subjects.Subject, key string) string {
	for _, b := range sub.Bugs {
		if b.PathDependent && containsStr(key, b.WantFunc) {
			return "   <- planted as path-dependent (" + b.ID + ")"
		}
	}
	return ""
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
