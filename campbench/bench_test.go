package main

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// The campaign-seed derivation is part of every workload's definition:
// changing it silently changes every campaign, so its values are pinned.
func TestCampaignSeedStable(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		id   string
		want int64
	}{
		{1, "grid/flvmeta/path", 103567881},
		{1, "deep/gdk/pcguard-cgt", 2144369239},
		{7, "durable/jq/path", 46509156},
	} {
		if got := campaignSeed(tc.seed, tc.id); got != tc.want {
			t.Errorf("campaignSeed(%d, %q) = %d, want %d", tc.seed, tc.id, got, tc.want)
		}
	}
	if campaignSeed(1, "grid/jq/path") == campaignSeed(2, "grid/jq/path") {
		t.Error("the workload seed does not reach the campaign seed")
	}
}

var deterministic = []string{"bugs_found", "edges_covered", "cov_deficit"}

// The same workload seed run twice gives identical search metrics: they
// depend on the seed alone, never on timing.
func TestDeterministicMetrics(t *testing.T) {
	names := []string{"grid", "deep", "durable"}
	if testing.Short() {
		names = []string{"durable"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			a, b := runOnce(t, name, 3), runOnce(t, name, 3)
			if a.Attempted != b.Attempted {
				t.Errorf("attempted %d vs %d", a.Attempted, b.Attempted)
			}
			for _, k := range deterministic {
				if a.Metrics[k] != b.Metrics[k] {
					t.Errorf("%s: %v vs %v", k, a.Metrics[k], b.Metrics[k])
				}
			}
		})
	}
}

func runOnce(t *testing.T, name string, seed int64) *result {
	t.Helper()
	b := newBench(workloadByName(name), seed, 1, false, t.TempDir(), io.Discard)
	res, err := b.run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s: output checks failed (%d of %d execs)", name, res.Failed, res.Attempted)
	}
	return res
}

// A single-phase campaign driven as restored slices runs the campaign
// strategy.Run would run: same counters, bugs and final queue. On the
// CGT engine the campaign is one slice, and its engine counters over
// the timed part match an uninterrupted fuzzer's over the same part.
func TestSlicedCampaignMatchesStrategyRun(t *testing.T) {
	for _, tc := range []struct {
		config strategy.Name
		engine fuzz.Engine
		budget int64
	}{
		{strategy.Path, fuzz.EngineAuto, 20000},
		{strategy.PCGuard, fuzz.EngineCGT, 30000},
	} {
		c := newCampaign("deep", "cflow", tc.config, tc.engine, tc.budget, 4, 5)
		t.Run(c.id, func(t *testing.T) {
			b := newBench(workloadByName("deep"), 5, 1, false, t.TempDir(), io.Discard)
			b.camps = []*camp{c}
			if err := b.setupCampaigns(true); err != nil {
				t.Fatal(err)
			}
			b.campaignPass(c, 0, false)
			b.campaignPass(c, 1, false)
			if c.err != nil || b.chk.failures > 0 {
				t.Fatalf("sliced campaign failed: %v (%d failed checks)", c.err, b.chk.failures)
			}
			out, err := strategy.Run(c.config, c.prog, strategy.Config{Opts: c.fuzzOpts(), Budget: c.budget, Seeds: c.subject.Seeds})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.report.Stats, out.Report.Stats; got != want {
				t.Errorf("stats %+v, strategy.Run %+v", got, want)
			}
			if got, want := c.report.BugKeys(), out.Report.BugKeys(); !slices.Equal(got, want) {
				t.Errorf("bugs %v, strategy.Run %v", got, want)
			}
			if !slices.EqualFunc(c.report.Queue, out.Report.Queue, slices.Equal) {
				t.Error("final queues differ")
			}
			if tc.engine != fuzz.EngineCGT {
				return
			}
			// The calls strategy.Run makes, with the engine's counters
			// read after calibration and at the end.
			f, err := fuzz.New(c.prog, c.fuzzOpts())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range c.subject.Seeds {
				f.AddSeed(s)
			}
			before, _ := f.CGTInfo()
			f.Fuzz(c.budget)
			want, _ := f.CGTInfo()
			want.FastExecs -= before.FastExecs
			want.Retraces -= before.Retraces
			want.Replans -= before.Replans
			if !c.hasCGT || c.cgt != want {
				t.Errorf("CGT counters %+v, uninterrupted campaign %+v", c.cgt, want)
			}
		})
	}
}

// tinyWorkload registers a small workload for the duration of a test.
func tinyWorkload(t *testing.T, camps func(seed int64) []*camp) {
	t.Helper()
	workloads = append(workloads, &workload{name: "tiny", campaigns: camps})
	t.Cleanup(func() { workloads = workloads[:len(workloads)-1] })
}

// runTiny runs the tiny workload through the command and returns its
// exit status and the JSON result line.
func runTiny(t *testing.T, trace string) (int, *result) {
	t.Helper()
	var stdout bytes.Buffer
	code := runMain([]string{"-workload", "tiny", "-seed", "1", "-seconds", "1", "-trace", trace, "-dir", t.TempDir()}, &stdout, io.Discard)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, last line %q: %v", code, lines[len(lines)-1], err)
	}
	return code, &res
}

// The traced run's engine-versus-interpreter check decides the exit
// status: an injected mismatch fails the run.
func TestReplayMismatchFailsTracedRun(t *testing.T) {
	tinyWorkload(t, func(seed int64) []*camp {
		return []*camp{newCampaign("tiny", "flvmeta", strategy.Path, fuzz.EngineAuto, 3000, 2, seed)}
	})
	if code, res := runTiny(t, "1"); code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("clean traced run: exit %d, %+v", code, res)
	}
	referenceRun = func(prog *cfg.Program, entry string, in []byte, tr vm.Tracer, lim vm.Limits) vm.Result {
		res := vm.Run(prog, entry, in, tr, lim)
		res.Steps++
		return res
	}
	t.Cleanup(func() { referenceRun = vm.Run })
	code, res := runTiny(t, "1")
	if code != 1 || res.Correct || res.Failed == 0 {
		t.Errorf("traced run with a replay mismatch: exit %d, %+v", code, res)
	}
}

// A campaign whose fuzzer cannot be built fails the run and counts its
// budget as failed.
func TestCampaignErrorFailsRun(t *testing.T) {
	tinyWorkload(t, func(seed int64) []*camp {
		return []*camp{
			newCampaign("tiny", "flvmeta", strategy.Path, fuzz.EngineAuto, 3000, 2, seed),
			newCampaign("tiny", "flvmeta", strategy.PCGuard, fuzz.Engine(99), 3000, 1, seed),
		}
	})
	code, res := runTiny(t, "0")
	if code != 1 || res.Correct || res.Failed < 3000 || res.Attempted < 6000 {
		t.Errorf("run with an erroring campaign: exit %d, %+v", code, res)
	}
}
