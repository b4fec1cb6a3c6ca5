// The pathprofiler example uses the Ball-Larus machinery the way the
// performance-profiling literature does (and the way the paper's §VII
// discusses DDGF using it as an oracle): it profiles a tokenizer over a
// workload and prints the hottest intra-procedural acyclic paths with
// their regenerated block sequences — information edge profiles cannot
// provide.
//
// Run with: go run ./examples/pathprofiler
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/cfg"
	"repro/internal/instrument"
	"repro/internal/vm"
)

const tokenizer = `
// A CSV-ish record scanner with per-character classification.
func classify(c) {
    if (c == ',') { return 1; }
    if (c == 10) { return 2; }
    if (c >= '0' && c <= '9') { return 3; }
    if (c == '"') { return 4; }
    return 0;
}

func scan(input) {
    var fields = 0;
    var rows = 0;
    var digits = 0;
    var quoted = 0;
    var i = 0;
    while (i < len(input)) {
        var k = classify(input[i]);
        if (k == 1) {
            fields = fields + 1;
        } else if (k == 2) {
            rows = rows + 1;
            fields = fields + 1;
        } else if (k == 3) {
            digits = digits + 1;
        } else if (k == 4) {
            quoted = 1 - quoted;
        }
        i = i + 1;
    }
    out(fields);
    out(rows);
    return digits;
}

func main(input) {
    return scan(input);
}
`

func main() {
	prog, err := cfg.Compile(tokenizer)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := instrument.NewProfiler(prog)
	if err != nil {
		log.Fatal(err)
	}

	workload := []string{
		"a,b,c\n1,2,3\n44,55,66\n",
		`"quoted,comma",7,8` + "\n",
		"9999999999\n",
	}
	for _, w := range workload {
		res := prof.Profile("main", []byte(w), vm.DefaultLimits())
		fmt.Printf("profiled %-28q status=%v steps=%d\n", w, res.Status, res.Steps)
	}

	fmt.Println("\nhottest acyclic paths (function, path id, count, blocks):")
	for i, pc := range prof.Counts() {
		if i >= 12 {
			break
		}
		var blocks []string
		for _, s := range pc.Blocks {
			b := fmt.Sprintf("b%d", s.Block)
			if s.EnterViaBackEdge {
				b = "loop:" + b
			}
			blocks = append(blocks, b)
		}
		fmt.Printf("  %-10s #%-4d x%-5d %s\n", pc.Func, pc.PathID, pc.Count, strings.Join(blocks, "→"))
	}
	fmt.Println("\nEach distinct path through scan's classification ladder is counted")
	fmt.Println("separately; an edge profile would merge them all.")
}
