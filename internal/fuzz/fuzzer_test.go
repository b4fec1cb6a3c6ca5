package fuzz

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// fig1 is the paper's motivating example: the heap overflow at
// arr[len+j] triggers only when execution reaches the store via the
// "rare" block (len%4==0 && len>39) with an input starting with 'h'.
const fig1 = `
func foo(input, arr) {
    var j = 0;
    var l = len(input);
    if (l - 2 > 54 || l < 3) { return 0; }
    if (l % 4 == 0 && l > 39) {
        j = 3;
    } else {
        j = -2;
    }
    var c = input[0];
    if (c == 'h') {
        arr[l + j] = 7;
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

func compileT(t testing.TB, src string) *cfg.Program {
	t.Helper()
	p, err := cfg.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestFuzzerFindsSimpleCrash(t *testing.T) {
	// A shallow magic-byte bug any feedback finds quickly.
	p := compileT(t, `
func main(input) {
    if (len(input) < 2) { return 0; }
    if (input[0] == 'A' && input[1] == 'B') {
        abort();
    }
    return 0;
}`)
	f, err := New(p, Options{Feedback: instrument.FeedbackEdge, Seed: 1, MapSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte("xx"))
	f.Fuzz(30000)
	rep := f.Report()
	if len(rep.Bugs) == 0 {
		t.Fatalf("edge fuzzer found no bugs in %d execs", rep.Stats.Execs)
	}
	t.Logf("bugs: %v after %d execs, queue %d", rep.BugKeys(), rep.Stats.Execs, rep.QueueLen)
}

func TestPathFeedbackFindsFig1Bug(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	p := compileT(t, fig1)
	seeds := [][]byte{[]byte("hello"), []byte("abcd")}
	const budget = 150000
	found := func(fb instrument.Feedback, seed int64) bool {
		f, err := New(p, Options{Feedback: fb, Seed: seed, MapSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range seeds {
			f.AddSeed(s)
		}
		f.Fuzz(budget)
		for k := range f.Report().Bugs {
			t.Logf("%v seed %d: %s", fb, seed, k)
			if containsOOB(k) {
				return true
			}
		}
		return false
	}
	pathHits := 0
	for seed := int64(1); seed <= 3; seed++ {
		if found(instrument.FeedbackPath, seed) {
			pathHits++
		}
	}
	if pathHits == 0 {
		t.Errorf("path feedback never triggered the Fig.1 overflow in 3 trials")
	}
	t.Logf("path feedback hit the overflow in %d/3 trials", pathHits)
}

func containsOOB(key string) bool {
	return len(key) > 0 && (contains(key, "out-of-bounds") || contains(key, "oob"))
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestDeterministicReplay(t *testing.T) {
	p := compileT(t, fig1)
	run := func() *Report {
		f, err := New(p, Options{Feedback: instrument.FeedbackPath, Seed: 42, MapSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		f.AddSeed([]byte("hello"))
		f.Fuzz(20000)
		return f.Report()
	}
	a, b := run(), run()
	if a.QueueLen != b.QueueLen || a.Stats.Execs != b.Stats.Execs || len(a.Bugs) != len(b.Bugs) {
		t.Errorf("campaign not deterministic: (%d,%d,%d) vs (%d,%d,%d)",
			a.QueueLen, a.Stats.Execs, len(a.Bugs), b.QueueLen, b.Stats.Execs, len(b.Bugs))
	}
}

func TestQueueGrowsMoreUnderPathFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	// Table I's phenomenon: path feedback retains more queue entries
	// than edge feedback. Acyclic paths truncate at back edges, so the
	// explosion driver is chains of branch diamonds (2^k paths for 2k
	// edges), the shape real parsers' header-validation code has.
	p := compileT(t, `
func main(input) {
    if (len(input) < 8) { return 0; }
    var s = 0;
    if (input[0] > 50) { s = s + 1; } else { s = s + 2; }
    if (input[1] > 50) { s = s * 2; } else { s = s + 3; }
    if (input[2] > 50) { s = s + 5; } else { s = s * 3; }
    if (input[3] > 50) { s = s ^ 9; } else { s = s + 7; }
    if (input[4] > 50) { s = s * 5; } else { s = s - 11; }
    if (input[5] > 50) { s = s + 13; } else { s = s ^ 21; }
    out(s);
    return s;
}`)
	qlen := func(fb instrument.Feedback) int {
		f, err := New(p, Options{Feedback: fb, Seed: 7, MapSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		f.AddSeed([]byte("abcDEF"))
		f.Fuzz(40000)
		return f.QueueLen()
	}
	edge, path := qlen(instrument.FeedbackEdge), qlen(instrument.FeedbackPath)
	if path <= edge {
		t.Errorf("queue sizes: path=%d edge=%d, want path > edge", path, edge)
	}
	t.Logf("queue sizes: edge=%d path=%d", edge, path)
}

func TestAddSeedBehaviour(t *testing.T) {
	p := compileT(t, `
func main(input) {
    if (len(input) > 0 && input[0] == 'X') { abort(); }
    return len(input);
}`)
	f, err := New(p, Options{Seed: 1, MapSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Crashing seeds are recorded but not queued (the opp strategy's
	// crash-strip requirement).
	f.AddSeed([]byte("Xcrash"))
	if f.QueueLen() != 0 {
		t.Error("crashing seed was queued")
	}
	rep := f.Report()
	if len(rep.Bugs) != 1 {
		t.Error("crashing seed's bug not recorded")
	}
	// A clean seed queues (the input-to-state stage may derive further
	// novel entries from it, e.g. a resized input, so the queue can
	// grow by more than one).
	f.AddSeed([]byte("ok"))
	after := f.QueueLen()
	if after < 1 {
		t.Fatalf("queue = %d", after)
	}
	queued := false
	for _, in := range f.QueueInputs() {
		if string(in) == "ok" {
			queued = true
		}
	}
	if !queued {
		t.Error("clean seed not in queue")
	}
	// A redundant seed (no novelty) is skipped.
	f.AddSeed([]byte("ok"))
	if f.QueueLen() != after {
		t.Error("duplicate seed queued")
	}
	// Over-long seeds are truncated to the input cap.
	long := make([]byte, 4096)
	f.AddSeed(long)
	for _, in := range f.QueueInputs() {
		if len(in) > maxInputLen {
			t.Errorf("queued input of %d bytes exceeds the %d-byte cap", len(in), maxInputLen)
		}
	}
}

func TestTimeoutsCounted(t *testing.T) {
	p := compileT(t, `
func main(input) {
    if (len(input) > 2 && input[0] == 'L') {
        while (1) { }
    }
    return 0;
}`)
	f, err := New(p, Options{Seed: 2, MapSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte("Lxx")) // times out; recorded, not queued
	f.AddSeed([]byte("abc"))
	f.Fuzz(3000)
	rep := f.Report()
	if rep.Stats.Timeouts == 0 {
		t.Error("no timeouts counted")
	}
	if len(rep.Bugs) != 0 {
		t.Errorf("timeout misclassified as bug: %v", rep.BugKeys())
	}
}

func TestCrashInputRetention(t *testing.T) {
	p := compileT(t, `
func main(input) {
    if (len(input) > 1 && input[0] == 'C') { abort(); }
    return 0;
}`)
	f, err := New(p, Options{Seed: 4, MapSize: 1 << 10, KeepCrashInputs: true})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte("xy"))
	f.Fuzz(20000)
	rep := f.Report()
	if len(rep.Crashes) == 0 {
		t.Skip("crash not reached in budget")
	}
	for _, rec := range rep.Crashes {
		if len(rec.Input) == 0 {
			t.Error("crash input not retained")
		}
		res := vm.Run(p, "main", rec.Input, vm.NullTracer{}, vm.DefaultLimits())
		if res.Status != vm.StatusCrash {
			t.Error("retained crash input does not reproduce")
		}
	}
}

// TestEnergySchedule is a white-box check of the power schedule's
// ordering properties: deeper, faster, higher-coverage entries get more
// energy; everything stays within the clamp.
func TestEnergySchedule(t *testing.T) {
	p := compileT(t, `func main(input) { return len(input); }`)
	f, err := New(p, Options{Seed: 9, MapSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte("abc"))
	base := &Entry{Steps: 100, Cov: make([]uint32, 10), Depth: 0, Data: []byte("x")}
	deep := &Entry{Steps: 100, Cov: make([]uint32, 10), Depth: 20, Data: []byte("x")}
	slow := &Entry{Steps: 100000, Cov: make([]uint32, 10), Depth: 0, Data: []byte("x")}
	f.sumSteps, f.sumCov = 100*int64(len(f.queue)+1), 10*int64(len(f.queue)+1)
	eBase, eDeep, eSlow := f.energy(base), f.energy(deep), f.energy(slow)
	if eDeep <= eBase {
		t.Errorf("depth bonus missing: base=%d deep=%d", eBase, eDeep)
	}
	if eSlow >= eBase {
		t.Errorf("slow entries not penalised: base=%d slow=%d", eBase, eSlow)
	}
	for _, e := range []int{eBase, eDeep, eSlow} {
		if e < 16 || e > 512 {
			t.Errorf("energy %d outside clamp [16,512]", e)
		}
	}
}

// TestSkipProbabilities is a statistical white-box check of AFL's
// queue-skipping constants.
func TestSkipProbabilities(t *testing.T) {
	p := compileT(t, `func main(input) { return len(input); }`)
	f, err := New(p, Options{Seed: 10, MapSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	count := func(e *Entry, pending int) int {
		f.pendingFavored = pending
		skips := 0
		for i := 0; i < 2000; i++ {
			if f.skip(e) {
				skips++
			}
		}
		return skips
	}
	favored := &Entry{Favored: true}
	if got := count(favored, 5); got != 0 {
		t.Errorf("favored entries skipped %d times", got)
	}
	// Non-favored with pending favorites: ~99%.
	nf := &Entry{}
	if got := count(nf, 5); got < 1900 {
		t.Errorf("pending-favored skip rate too low: %d/2000", got)
	}
	// Non-favored, already fuzzed, no pending: ~95%.
	nfOld := &Entry{WasFuzzed: true}
	if got := count(nfOld, 0); got < 1800 || got > 1980 {
		t.Errorf("old-entry skip rate off: %d/2000", got)
	}
	// Non-favored, fresh: ~75%.
	if got := count(nf, 0); got < 1350 || got > 1650 {
		t.Errorf("fresh-entry skip rate off: %d/2000", got)
	}
}
