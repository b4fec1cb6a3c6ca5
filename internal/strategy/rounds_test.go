package strategy

import (
	"sort"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/subjects"
)

// TestCullStampsOnCampaignAxis: a culling campaign's merged report
// stamps every discovery on the campaign's exec axis, where round k
// starts after the fuzzing executions of rounds 0..k-1. mujs at seed 2
// finds a bug first in a late round.
func TestCullStampsOnCampaignAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	sub := subjects.Get("mujs")
	prog := sub.MustProgram()
	c := Config{
		Opts:   fuzz.Options{Feedback: instrument.FeedbackPath, Seed: 2},
		Budget: 200000,
		Seeds:  sub.Seeds,
	}
	// starts[k] is the executions before round k; firstRound maps a bug
	// key to the first round whose report holds it. RunCull's culling,
	// recorded round by round.
	starts := []int64{0}
	firstRound := map[string]int{}
	out, err := runRounds(prog, c, func(f *fuzz.Fuzzer, _ int64) ([][]byte, int64) {
		k := len(starts) - 1
		for key := range f.Report().Bugs {
			if _, ok := firstRound[key]; !ok {
				firstRound[key] = k
			}
		}
		starts = append(starts, starts[k]+f.Execs())
		queue := f.QueueInputs()
		return fuzz.MinimizeCorpus(prog, queue, c.Opts.Entry, c.Opts.Limits), int64(len(queue))
	})
	if err != nil {
		t.Fatal(err)
	}
	r := out.Report
	end := r.Stats.Execs
	for _, m := range r.Corpus {
		if m.FoundAt > end {
			t.Errorf("corpus entry %d admitted at exec %d, past the campaign's %d", m.ID, m.FoundAt, end)
		}
	}
	for _, ft := range r.Faults {
		if ft.FoundAt > end {
			t.Errorf("fault %q first at exec %d, past the campaign's %d", ft.Msg, ft.FoundAt, end)
		}
	}
	for _, rec := range r.Crashes {
		if rec.FoundAt > end {
			t.Errorf("crash %s first at exec %d, past the campaign's %d", rec.Crash.BugKey(), rec.FoundAt, end)
		}
	}
	if !sort.SliceIsSorted(r.Crashes, func(i, j int) bool { return r.Crashes[i].FoundAt < r.Crashes[j].FoundAt }) {
		t.Error("crashes are not in discovery order")
	}
	late := 0
	for key, rec := range r.Bugs {
		k, ok := firstRound[key]
		if !ok {
			k = len(starts) - 1 // found first in the last round
		}
		if k > 0 {
			late++
		}
		if rec.FoundAt <= starts[k] || rec.FoundAt > end {
			t.Errorf("bug %s first found in round %d (execs %d..) stamped at exec %d", key, k, starts[k]+1, rec.FoundAt)
		}
	}
	if late == 0 {
		t.Fatalf("no bug was first found after round 0 (%d rounds)", out.Rounds)
	}
}
