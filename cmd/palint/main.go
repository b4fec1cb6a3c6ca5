// Command palint lints MiniC programs with the static-analysis
// framework: statements after one that never falls through
// (unreachable), variables declared but never read (unused-var), and
// functions no call chain from main reaches (unreachable-func, read
// from the call graph).
// Diagnostics are reported in a deterministic order: source position,
// then check name. With -verify it additionally runs the IR verifier
// over the lowered program.
//
// Usage:
//
//	palint file.mc [file2.mc ...]   # lint source files
//	palint -subjects                # lint the built-in benchmark subjects
//
// Exit status: 0 clean, 1 findings reported, 2 parse/compile/verify
// errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/interproc"
	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/subjects"
)

func main() {
	var (
		lintSubjects = flag.Bool("subjects", false, "lint the built-in benchmark subjects instead of files")
		verify       = flag.Bool("verify", false, "also run the IR verifier over the lowered program")
		quiet        = flag.Bool("q", false, "suppress per-target clean lines")
	)
	flag.Parse()

	type unit struct {
		name string
		src  string
	}
	var units []unit
	switch {
	case *lintSubjects:
		for _, sub := range subjects.All() {
			units = append(units, unit{name: sub.Name, src: sub.Source})
		}
	case flag.NArg() > 0:
		for _, path := range flag.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "palint: %v\n", err)
				os.Exit(2)
			}
			units = append(units, unit{name: path, src: string(src)})
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	findings, failed := 0, false
	for _, u := range units {
		ast, err := lang.Parse(u.src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "palint: %s: %v\n", u.name, err)
			failed = true
			continue
		}
		prog, err := cfg.Compile(u.src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "palint: %s: %v\n", u.name, err)
			failed = true
			continue
		}
		if *verify {
			if err := analysis.Verify(prog); err != nil {
				fmt.Fprintf(os.Stderr, "palint: %s: %v\n", u.name, err)
				failed = true
				continue
			}
		}
		fds := analysis.Lint(ast)
		fds = append(fds, interproc.Lint(prog)...)
		analysis.SortFindings(fds)
		for _, fd := range fds {
			fmt.Printf("%s:%s\n", u.name, fd)
		}
		findings += len(fds)
		if len(fds) == 0 && !*quiet {
			fmt.Printf("%s: clean\n", u.name)
		}
	}
	switch {
	case failed:
		os.Exit(2)
	case findings > 0:
		os.Exit(1)
	}
}
