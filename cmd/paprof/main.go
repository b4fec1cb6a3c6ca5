// Command paprof is a standalone Ball-Larus path profiler for MiniC
// programs: it compiles a program, numbers the acyclic paths of every
// function, runs the provided inputs, and prints per-path execution
// frequencies with regenerated block sequences — the Figure 1 machinery
// as a tool.
//
// Usage:
//
//	paprof -subject flvmeta -input 'FLV...'
//	paprof -src prog.mc -input-file input.bin -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"repro/internal/bytecode"
	"repro/internal/campaign"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/vm"
)

func main() {
	var (
		subjectName = flag.String("subject", "", "benchmark subject to profile")
		srcPath     = flag.String("src", "", "MiniC source file to profile")
		inputStr    = flag.String("input", "", "input bytes (literal)")
		inputFile   = flag.String("input-file", "", "file holding the input bytes")
		statsOnly   = flag.Bool("stats", false, "print per-function path statistics only")
		topN        = flag.Int("top", 20, "show the N hottest paths")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile at exit to this file")
		tracePath   = flag.String("trace", "", "write a runtime execution trace of the run to this file (inspect with go tool trace)")
		engineName  = flag.String("engine", "", "also re-execute the input in a loop under this execution engine (bytecode|cgt) so -cpuprofile/-memprofile capture engine hot paths")
		engineExecs = flag.Int("execs", 10000, "repeat count for the -engine profiling loop")
		journalDir  = flag.String("journal", "", "validate and summarise a campaign's event journal (state dir or journal dir) and exit; exit status 1 on gaps or schema errors")
		genealogy   = flag.String("genealogy", "", "render discovery attribution and corpus genealogy from a campaign (or fleet) state directory and exit")
		explainDir  = flag.String("explain", "", "print the source-level meaning of every observed coverage-map cell from a campaign (or fleet) state directory and exit; exit status 1 if any cell is unresolvable")
		covReport   = flag.String("coverage-report", "", "render the annotated-source coverage report, per-function path-discovery counts, and frontier explorer from a campaign (or fleet) state directory and exit; exit status 1 if any observed cell is unresolvable")
		htmlOut     = flag.String("html", "", "with -genealogy or -coverage-report: also write the report as a self-contained HTML page to this file")
	)
	flag.Parse()

	// The forensics modes work offline from a state directory — no
	// target, no execution — so they run before the -subject/-src check.
	if *journalDir != "" {
		runJournal(*journalDir)
		return
	}
	if *genealogy != "" {
		runGenealogy(*genealogy, *htmlOut)
		return
	}
	if *explainDir != "" {
		runExplain(*explainDir)
		return
	}
	if *covReport != "" {
		runCoverageReport(*covReport, *htmlOut)
		return
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("trace: %v", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fatalf("trace: %v", err)
		}
		defer trace.Stop()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	if *subjectName == "" && *srcPath == "" {
		fatalf("one of -subject or -src is required")
	}
	meta := campaign.Meta{Subject: *subjectName, Source: *srcPath}
	prog, _, err := meta.Program()
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Println("function            blocks edges back  acyclic-paths probes(naive/opt)")
	for _, ps := range instrument.PathReport(prog) {
		if ps.HashedFallback {
			fmt.Printf("%-20s %5d %5d %4d  (hash fallback: too many paths)\n",
				ps.Func, ps.Blocks, ps.Edges, ps.BackEdges)
			continue
		}
		fmt.Printf("%-20s %5d %5d %4d  %12d  %d/%d\n",
			ps.Func, ps.Blocks, ps.Edges, ps.BackEdges, ps.NumPaths,
			ps.ProbesNaive, ps.ProbesOptimal)
	}
	if *statsOnly {
		return
	}

	var input []byte
	switch {
	case *inputFile != "":
		b, err := os.ReadFile(*inputFile)
		if err != nil {
			fatalf("%v", err)
		}
		input = b
	default:
		input = []byte(*inputStr)
	}

	prof, err := instrument.NewProfiler(prog)
	if err != nil {
		fatalf("%v", err)
	}
	res := prof.Profile("main", input, vm.DefaultLimits())
	fmt.Printf("\nexecution: status=%v steps=%d ret=%d\n", res.Status, res.Steps, res.Ret)
	if res.Crash != nil {
		fmt.Printf("crash: %s\n", res.Crash)
	}
	fmt.Printf("\nhottest acyclic paths:\n")
	for i, pc := range prof.Counts() {
		if i >= *topN {
			break
		}
		var blocks []string
		for _, s := range pc.Blocks {
			b := fmt.Sprintf("b%d", s.Block)
			if s.EnterViaBackEdge {
				b = "↺" + b
			}
			if s.ExitViaBackEdge {
				b += "↺"
			}
			blocks = append(blocks, b)
		}
		fmt.Printf("  %-16s path %-6d x%-6d  %s\n", pc.Func, pc.PathID, pc.Count, strings.Join(blocks, "→"))
	}

	if *engineName != "" {
		runEngineLoop(prog, *engineName, input, *engineExecs)
	}
}

// runEngineLoop re-executes the input under the selected engine so the
// process-level CPU/mem profiles capture the engine's hot paths rather
// than the path profiler's. For the CGT engine every map cell the
// warm-up run touched is marked consumed before patching: replaying a
// fixed input can never reproduce novelty past its first execution, so
// the patched run is the steady-state fast path a campaign would
// execute for this input.
func runEngineLoop(prog *cfg.Program, engineName string, input []byte, execs int) {
	eng, err := fuzz.ParseEngine(engineName)
	if err != nil {
		fatalf("%v", err)
	}
	lim := vm.DefaultLimits()
	m := coverage.NewMap(coverage.DefaultMapSize)
	cp, _ := instrument.CompiledFor(instrument.FeedbackPath, prog, instrument.Config{})
	mach := bytecode.NewMachine(cp, m, lim)
	if eng == fuzz.EngineCGT {
		patch := bytecode.NewPatchable(cp, m.Len())
		consumed := coverage.NewBitset(m.Len())
		m.Reset()
		mach.Run("main", input)
		m.ClassifySparse()
		for _, idx := range m.Indices() {
			consumed.Set(idx)
		}
		elided := patch.Replan(consumed)
		mach = bytecode.NewMachine(patch.Program(), m, lim)
		mach.SetElide(consumed)
		fmt.Printf("\nengine cgt: elided %d/%d static probe sites (%d consumed cells)\n",
			elided, patch.NumSites(), consumed.Count())
	}
	start := time.Now()
	var last vm.Result
	for i := 0; i < execs; i++ {
		m.Reset()
		last = mach.Run("main", input)
	}
	el := time.Since(start)
	fmt.Printf("engine %s: %d execs in %s (%.0f ns/exec), status=%v steps=%d\n",
		eng, execs, el.Round(time.Millisecond), float64(el.Nanoseconds())/float64(execs), last.Status, last.Steps)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paprof: "+format+"\n", args...)
	os.Exit(1)
}
