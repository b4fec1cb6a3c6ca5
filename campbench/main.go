// Command campbench is the repository's campaign benchmark. It runs one
// named workload of fuzzing campaigns as a closed loop — one campaign
// or one fleet at a time, from this one process — checks the outputs
// of every campaign, and prints its metrics as one JSON object on the
// last line of standard output: the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a traced run. README.md lists the
// workloads, the metrics and the method.
//
//	campbench -workload grid|deep|durable -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain runs the command with args and returns its exit status: 0 on
// success, 1 when the run fails or an output check fails, 2 on a usage
// error.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: grid, deep or durable")
		seed     = fs.Int64("seed", 1, "workload seed; every campaign seed derives from it")
		seconds  = fs.Int("seconds", 35, "nominal measured duration; sets how many timing passes run")
		trace    = fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		dir      = fs.String("dir", ".bench_build", "directory for campaign state and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "campbench: unknown workload %q (want grid, deep or durable)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "campbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	b := newBench(w, *seed, *seconds, *trace == 1, *dir, stderr)
	res, err := b.run(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "campbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "campbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
