package instrument_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/vm"
)

func compile(t testing.TB, src string) *cfg.Program {
	t.Helper()
	p, err := cfg.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

const loopy = `
func classify(c) {
    if (c > 128) { return 2; }
    if (c > 64) { return 1; }
    return 0;
}
func main(input) {
    var s = 0;
    for (var i = 0; i < len(input); i = i + 1) {
        var k = classify(input[i]);
        if (k == 2) { s = s + 3; } else {
            if (k == 1) { s = s + 1; } else { s = s - 1; }
        }
    }
    out(s);
    return s;
}
`

func runWith(t testing.TB, p *cfg.Program, fb instrument.Feedback, cfgI instrument.Config, input []byte) *coverage.Map {
	t.Helper()
	m := coverage.NewMap(1 << 12)
	tr, err := instrument.New(fb, p, m, cfgI)
	if err != nil {
		t.Fatal(err)
	}
	res := vm.Run(p, "main", input, tr, vm.DefaultLimits())
	if res.Status != vm.StatusOK {
		t.Fatalf("execution failed: %v %v", res.Status, res.Crash)
	}
	return m
}

// TestPathDistinguishesWhatEdgeMerges reproduces §II-B exactly: two
// executions that traverse the SAME edges with the SAME hit counts but
// along different branch combinations are identical to edge coverage
// and distinct to path coverage. f runs twice per execution; one input
// exercises the (then,else)/(else,then) combinations, the other
// (then,then)/(else,else) — every edge runs once either way.
func TestPathDistinguishesWhatEdgeMerges(t *testing.T) {
	p := compile(t, `
func f(a, b) {
    var x = 0;
    if (a > 0) { x = x + 1; } else { x = x + 2; }
    if (b > 0) { x = x * 2; } else { x = x * 3; }
    return x;
}
func main(input) {
    if (len(input) < 2) { return 0; }
    f(input[0], input[1]);
    f(1 - input[0], 1 - input[1]);
    return 0;
}`)
	cells := func(fb instrument.Feedback, in []byte) string {
		m := coverage.NewMap(1 << 12)
		tr, err := instrument.New(fb, p, m, instrument.Config{})
		if err != nil {
			t.Fatal(err)
		}
		vm.Run(p, "main", in, tr, vm.DefaultLimits())
		coverage.Classify(m.Bytes())
		return string(m.Bytes())
	}
	mixed := []byte{1, 0}   // f(1,0) then f(0,1): paths TE, ET
	aligned := []byte{1, 1} // f(1,1) then f(0,0): paths TT, EE
	if cells(instrument.FeedbackEdge, mixed) != cells(instrument.FeedbackEdge, aligned) {
		t.Fatalf("edge coverage distinguishes the calibration inputs — test premise broken")
	}
	if cells(instrument.FeedbackPath, mixed) == cells(instrument.FeedbackPath, aligned) {
		t.Errorf("path coverage failed to distinguish branch combinations (the paper's core claim)")
	}
}

// TestFeedbackNames pins the names campaigns print: journal start
// events and cartography reports carry Feedback.String(), never the
// integer.
func TestFeedbackNames(t *testing.T) {
	for fb, want := range map[instrument.Feedback]string{
		instrument.FeedbackEdge:      "edge",
		instrument.FeedbackPath:      "path",
		instrument.FeedbackPathAFL:   "pathafl",
		instrument.FeedbackPath2:     "path2",
		instrument.FeedbackSelective: "selective",
		instrument.Feedback(99):      "feedback-99",
		instrument.Feedback(-1):      "feedback--1",
	} {
		if got := fb.String(); got != want {
			t.Errorf("Feedback(%d).String() = %q, want %q", int(fb), got, want)
		}
	}
}

func TestEdgeTracerExactIDs(t *testing.T) {
	p := compile(t, loopy)
	m := coverage.NewMap(1 << 12)
	tr := instrument.NewEdgeTracer(p, m)
	vm.Run(p, "main", []byte("abc"), tr, vm.DefaultLimits())
	total := p.NumEdges()
	for _, idx := range m.Indices() {
		if int(idx) >= total {
			t.Errorf("edge index %d out of range (%d edges)", idx, total)
		}
	}
}

func TestPathAFLTracerRecords(t *testing.T) {
	p := compile(t, loopy)
	m := runWith(t, p, instrument.FeedbackPathAFL, instrument.Config{}, []byte("hello"))
	if m.CountNonZero() == 0 {
		t.Error("pathafl produced no coverage")
	}
	// PathAFL includes exact edge coverage; its map should touch at
	// least as many entries as the pure edge tracer.
	me := runWith(t, p, instrument.FeedbackEdge, instrument.Config{}, []byte("hello"))
	if m.CountNonZero() < me.CountNonZero() {
		t.Errorf("pathafl coverage (%d) below edge coverage (%d)", m.CountNonZero(), me.CountNonZero())
	}
}

func TestProfilerCountsAndRegeneration(t *testing.T) {
	p := compile(t, loopy)
	prof, err := instrument.NewProfiler(p)
	if err != nil {
		t.Fatal(err)
	}
	res := prof.Profile("main", []byte{200, 100, 10, 200}, vm.DefaultLimits())
	if res.Status != vm.StatusOK {
		t.Fatalf("profile run failed: %v", res.Status)
	}
	counts := prof.Counts()
	if len(counts) == 0 {
		t.Fatal("no paths recorded")
	}
	// classify ran 4 times; its path counts must sum to 4.
	var classifyTotal uint64
	for _, pc := range counts {
		if pc.Func == "classify" {
			classifyTotal += pc.Count
			if len(pc.Blocks) == 0 {
				t.Errorf("path %d has no regenerated blocks", pc.PathID)
			}
		}
	}
	if classifyTotal != 4 {
		t.Errorf("classify path counts sum to %d, want 4", classifyTotal)
	}
	prof.Reset()
	if len(prof.Counts()) != 0 {
		t.Error("reset did not clear counts")
	}
}

// TestProfilerMatchesDirectEnumeration: profiling the same input twice
// doubles every count.
func TestProfilerDoubling(t *testing.T) {
	p := compile(t, loopy)
	prof, err := instrument.NewProfiler(p)
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("abcXYZ")
	prof.Profile("main", in, vm.DefaultLimits())
	once := prof.Counts()
	prof.Profile("main", in, vm.DefaultLimits())
	twice := prof.Counts()
	if len(once) != len(twice) {
		t.Fatalf("path set changed: %d vs %d", len(once), len(twice))
	}
	for i := range once {
		if twice[i].Count != 2*once[i].Count {
			t.Errorf("path %s/%d: %d != 2*%d", once[i].Func, once[i].PathID, twice[i].Count, once[i].Count)
		}
	}
}

// TestHashFallbackForHugeFunctions: a function whose acyclic path count
// exceeds balllarus.MaxPaths must still be traceable — the path tracer
// falls back to hashed path IDs and keeps distinguishing executions.
func TestHashFallbackForHugeFunctions(t *testing.T) {
	src := "func main(input) {\n    var s = 0;\n    if (len(input) < 60) { return 0; }\n"
	for i := 0; i < 55; i++ {
		src += "    if (input[" + itoa(i) + "] > 128) { s = s + 1; } else { s = s - 1; }\n"
	}
	src += "    return s;\n}\n"
	p := compile(t, src)
	m := coverage.NewMap(1 << 12)
	tr := instrument.NewPathTracer(p, m)
	mainID := p.ByName["main"]
	if !tr.HashMode(mainID) {
		t.Fatal("2^55-path function not in hash mode")
	}
	in1 := make([]byte, 64)
	in2 := make([]byte, 64)
	in2[10] = 255
	cells := func(in []byte) string {
		m.Reset()
		vm.Run(p, "main", in, tr, vm.DefaultLimits())
		return string(m.Bytes())
	}
	if cells(in1) == cells(in2) {
		t.Error("hash-mode path tracer does not distinguish different paths")
	}
	if cells(in1) != cells(in1) {
		t.Error("hash-mode path tracer is nondeterministic")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestProfilerRejectsHugeFunctions: the exact profiler (unlike the
// fuzzing tracer) must refuse overflow rather than silently hash.
func TestProfilerRejectsHugeFunctions(t *testing.T) {
	src := "func main(input) {\n    var s = 0;\n"
	for i := 0; i < 55; i++ {
		src += "    if (len(input) > " + itoa(i) + ") { s = s + 1; } else { s = s - 1; }\n"
	}
	src += "    return s;\n}\n"
	p := compile(t, src)
	if _, err := instrument.NewProfiler(p); err == nil {
		t.Error("profiler accepted an un-numberable function")
	}
}

// TestPath2DistinguishesPathSequences: the 2-gram extension separates
// executions whose multiset of acyclic paths is identical but whose
// ORDER differs — one notch above plain path feedback, as §VII
// sketches.
func TestPath2DistinguishesPathSequences(t *testing.T) {
	p := compile(t, `
func main(input) {
    var s = 0;
    for (var i = 0; i < len(input); i = i + 1) {
        if (input[i] == 'A') { s = s + 1; } else { s = s - 1; }
    }
    return s;
}`)
	cells := func(fb instrument.Feedback, in string) string {
		m := coverage.NewMap(1 << 12)
		tr, err := instrument.New(fb, p, m, instrument.Config{})
		if err != nil {
			t.Fatal(err)
		}
		vm.Run(p, "main", []byte(in), tr, vm.DefaultLimits())
		coverage.Classify(m.Bytes())
		return string(m.Bytes())
	}
	// "AABB" vs "ABAB": same iteration-path multiset {A,A,B,B}; plain
	// path feedback cannot tell them apart, 2-grams can (AA,AB,BB vs
	// AB,BA,AB).
	if cells(instrument.FeedbackPath, "AABB") != cells(instrument.FeedbackPath, "ABAB") {
		t.Fatal("plain path feedback distinguishes the calibration pair — premise broken")
	}
	if cells(instrument.FeedbackPath2, "AABB") == cells(instrument.FeedbackPath2, "ABAB") {
		t.Error("path 2-grams failed to distinguish path orderings")
	}
}

// diamonds defines a function named name with n independent if/else
// diamonds in sequence, so 2^n acyclic paths.
func diamonds(name string, n int) string {
	src := "func " + name + "(x) {\n    var s = 0;\n"
	for i := 0; i < n; i++ {
		src += "    if (x & " + itoa(1<<i) + ") { s = s + " + itoa(i+1) + "; } else { s = s - 1; }\n"
	}
	return src + "    return s;\n}\n"
}

// TestSelectiveThreshold: functions with at most 256 acyclic paths keep
// path feedback, larger ones fall back to edge feedback.
func TestSelectiveThreshold(t *testing.T) {
	p := compile(t, diamonds("d8", 8)+diamonds("d9", 9)+`
func main(input) { return d8(len(input)) + d9(len(input)); }`)
	usePath := instrument.SelectivePathFns(p)
	// d8 (256 paths) and main (1 path) qualify; d9 (512 paths) does
	// not.
	for name, want := range map[string]bool{"d8": true, "d9": false, "main": true} {
		if got := usePath[p.ByName[name]]; got != want {
			t.Errorf("%s: path probes = %v, want %v", name, got, want)
		}
	}
	// Execution must stay consistent (register stack aligned) across
	// mixed functions.
	m := coverage.NewMap(1 << 12)
	res := vm.Run(p, "main", []byte("abc"), instrument.NewSelectivePathTracer(p, m), vm.DefaultLimits())
	if res.Status != vm.StatusOK {
		t.Fatalf("mixed-mode execution failed: %v", res.Status)
	}
	if m.CountNonZero() == 0 {
		t.Error("no coverage recorded")
	}
}

// TestSelectiveQueuePressureReduction: on a program dominated by a
// high-path-count function, selective feedback produces coarser maps
// than full path feedback. f has 512 acyclic paths (> 256), so
// selective demotes it to edge coverage; main calls it twice with
// complementary arguments, so every execution covers every edge of f
// exactly once — the edge view is constant while the path view
// distinguishes the branch-combination pairs.
func TestSelectiveQueuePressureReduction(t *testing.T) {
	p := compile(t, diamonds("f", 9)+`
func main(input) {
    if (len(input) < 1) { return 0; }
    var x = input[0];
    f(x);
    f(511 - x);
    return 0;
}`)
	distinct := func(fb instrument.Feedback) int {
		m := coverage.NewMap(1 << 12)
		tr, err := instrument.New(fb, p, m, instrument.Config{})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for x := 0; x < 8; x++ {
			m.Reset()
			vm.Run(p, "main", []byte{byte(x)}, tr, vm.DefaultLimits())
			seen[string(m.Bytes())] = true
		}
		return len(seen)
	}
	full := distinct(instrument.FeedbackPath)
	sel := distinct(instrument.FeedbackSelective)
	if sel >= full {
		t.Errorf("selective (%d distinct maps) not coarser than path (%d)", sel, full)
	}
	t.Logf("distinct maps: path=%d selective=%d", full, sel)
}

func TestPathReport(t *testing.T) {
	p := compile(t, `
func branchy(a) {
    if (a > 1) { a = a + 1; } else { a = a - 1; }
    if (a > 2) { a = a * 2; } else { a = a * 3; }
    return a;
}
func main(input) { return branchy(len(input)); }
`)
	stats := instrument.PathReport(p)
	if len(stats) != 2 {
		t.Fatalf("%d functions", len(stats))
	}
	for _, ps := range stats {
		if ps.Func == "branchy" {
			if ps.NumPaths != 4 {
				t.Errorf("branchy paths = %d, want 4", ps.NumPaths)
			}
			if ps.HashedFallback {
				t.Error("unexpected hash fallback")
			}
		}
	}
}
