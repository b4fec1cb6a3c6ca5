package journal

import (
	"fmt"
	"strings"
	"testing"
)

// sampleCorpus is a two-worker corpus with a seed → havoc → splice
// lineage on worker 0 and a lone seed on worker 1.
func sampleCorpus() []CorpusMeta {
	return []CorpusMeta{
		{Worker: 0, ID: 0, Parent: -1, Stage: "seed", FoundAt: 0, Len: 4, CovCount: 3, FirstCells: []uint32{1, 2, 3}},
		{Worker: 0, ID: 1, Parent: 0, Stage: "havoc", Depth: 1, FoundAt: 100, Len: 6, CovCount: 4, FirstCells: []uint32{4}},
		{Worker: 0, ID: 2, Parent: 1, Stage: "splice", Depth: 2, FoundAt: 250, Len: 9, CovCount: 5, FirstCells: []uint32{5, 6}},
		{Worker: 1, ID: 0, Parent: -1, Stage: "seed", FoundAt: 0, Len: 4, CovCount: 3, FirstCells: []uint32{1, 7}},
	}
}

func TestGenealogyTree(t *testing.T) {
	var b strings.Builder
	Genealogy(&b, sampleCorpus())
	out := b.String()
	if !strings.Contains(out, "worker 0:") || !strings.Contains(out, "worker 1:") {
		t.Fatalf("missing worker headers:\n%s", out)
	}
	// The splice entry is two mutations deep: indented under its havoc
	// parent, which is indented under the seed root.
	if !strings.Contains(out, "    #2    splice") {
		t.Fatalf("splice entry not nested at depth 2:\n%s", out)
	}
	// Each entry prints exactly once despite the orphan sweep.
	if n := strings.Count(out, "#2    splice"); n != 1 {
		t.Fatalf("splice entry printed %d times:\n%s", n, out)
	}
}

func TestAttributionRows(t *testing.T) {
	rows := AttributionRows(sampleCorpus(), nil)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	// Row order follows stageOrder, not alphabetical.
	if rows[0].Stage != "seed" || rows[1].Stage != "havoc" || rows[2].Stage != "splice" {
		t.Fatalf("row order wrong: %+v", rows)
	}
	if rows[0].Entries != 2 || rows[0].FirstCells != 5 || rows[0].Crashes != 0 {
		t.Fatalf("seed row %+v, want 2 entries / 5 cells / 0 crashes", rows[0])
	}

	// Crash events fill the crash column: a stage without entries still
	// gets a row, a stageless crash lands in the "?" row, and other
	// kinds are ignored.
	events := []Event{
		{Kind: KindCrash, Stage: "havoc"},
		{Kind: KindCrash, Stage: "havoc"},
		{Kind: KindCrash, Stage: "cmplog"},
		{Kind: KindCrash},
		{Kind: KindNovelty, Stage: "splice"},
		{Kind: KindCycle},
	}
	rows = AttributionRows(sampleCorpus(), events)
	want := []stageRow{
		{Stage: "seed", Entries: 2, FirstCells: 5},
		{Stage: "havoc", Entries: 1, FirstCells: 1, Crashes: 2},
		{Stage: "splice", Entries: 1, FirstCells: 2},
		{Stage: "cmplog", Crashes: 1},
		{Stage: "?", Crashes: 1},
	}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("rows with crashes = %+v, want %+v", rows, want)
	}

	var b strings.Builder
	Attribution(&b, "flvmeta/path", sampleCorpus(), events)
	out := b.String()
	if !strings.Contains(out, "discovery attribution (flvmeta/path):") {
		t.Fatalf("missing label header:\n%s", out)
	}
	for _, want := range []string{"crashes", "\n  havoc           1        1          12.5%        2\n", "\n  total           4        8                       4\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("attribution missing %q:\n%s", want, out)
		}
	}
	// Without journal events the crash column is unknown, not zero.
	b.Reset()
	Attribution(&b, "l", sampleCorpus(), nil)
	if !strings.Contains(b.String(), "\n  total           4        8                       -\n") {
		t.Fatalf("journal-less attribution:\n%s", b.String())
	}
}

// TestEventAttribution: from a journal alone (`paprof -journal`),
// Corpus rebuilds provenance from the novelty events (a missing parent
// reads as a seed's -1), and the attribution table counts each stage's
// entries, their cells, and its crash events, stageless crashes under
// "?".
func TestEventAttribution(t *testing.T) {
	events := []Event{
		{Kind: KindStart},
		{Kind: KindNovelty, Worker: 1, Stage: "havoc", Entry: Int(0), Cells: []uint32{1, 2}, Cov: 2, Len: 4},
		{Kind: KindNovelty, Stage: "havoc", Entry: Int(1), Parent: Int(0), Depth: 1, Steps: 9,
			Execs: 500, Len: 6, Cov: 3, Cells: []uint32{3}},
		{Kind: KindNovelty, Stage: "splice", Entry: Int(2)},
		{Kind: KindNovelty, Stage: "splice"}, // no entry: not a queue admission
		{Kind: KindCrash, Stage: "havoc"},
		{Kind: KindCrash},
		{Kind: KindCycle},
	}
	corpus := Corpus(events)
	want := []CorpusMeta{
		{Worker: 1, ID: 0, Parent: -1, Stage: "havoc", Len: 4, CovCount: 2, FirstCells: []uint32{1, 2}},
		{ID: 1, Parent: 0, Stage: "havoc", Depth: 1, Steps: 9, FoundAt: 500, Len: 6, CovCount: 3, FirstCells: []uint32{3}},
		{ID: 2, Parent: -1, Stage: "splice"},
	}
	if fmt.Sprint(corpus) != fmt.Sprint(want) {
		t.Fatalf("Corpus = %+v, want %+v", corpus, want)
	}

	var b strings.Builder
	Attribution(&b, "j", corpus, events)
	rows := make(map[string]string)
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = strings.Join(f, " ")
		}
	}
	for _, want := range []string{"havoc 2 3 100.0% 1", "splice 1 0 0.0% 0", "? 0 0 0.0% 1", "total 3 3 2"} {
		if rows[strings.Fields(want)[0]] != want {
			t.Errorf("row %q, want %q:\n%s", rows[strings.Fields(want)[0]], want, b.String())
		}
	}
}

func TestProvenanceCSV(t *testing.T) {
	data := ProvenanceCSV(sampleCorpus())
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if lines[0] != "worker,id,parent,stage,depth,steps,found_at,len,cov,first_cells" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("got %d data rows, want 4", len(lines)-1)
	}
	if lines[1] != "0,0,-1,seed,0,0,0,4,3,3" {
		t.Fatalf("first row %q", lines[1])
	}
	// Empty corpus still yields the header (evalharness marker files).
	if got := string(ProvenanceCSV(nil)); got != lines[0]+"\n" {
		t.Fatalf("empty-corpus CSV %q", got)
	}
}

func TestHTMLReport(t *testing.T) {
	events := []Event{{Kind: KindNovelty, Stage: "havoc", Cells: []uint32{1}}, {Kind: KindCrash, Stage: "splice"}}
	page := string(HTMLReport("t<b>itle", "subj/fuzzer", sampleCorpus(), events, nil))
	if !strings.HasPrefix(page, "<!doctype html>") || !strings.HasSuffix(page, "</body></html>") {
		t.Fatalf("page not well-formed:\n%.120s...", page)
	}
	// Title is escaped, never interpolated raw.
	if strings.Contains(page, "t<b>itle") || !strings.Contains(page, "t&lt;b&gt;itle") {
		t.Fatal("title not HTML-escaped")
	}
	for _, want := range []string{"genealogy", "journal (2 events)", "coverage-delta attribution", "subj/fuzzer",
		"<tr><td class=l>splice</td><td>1</td><td>2</td><td>1</td></tr>"} {
		if !strings.Contains(page, want) {
			t.Fatalf("page missing %q", want)
		}
	}
	// One attribution table, with the crash column, and no rarity.
	if n := strings.Count(page, "attribution</h2>"); n != 2 {
		t.Fatalf("page has %d attribution sections, want discovery and coverage-delta", n)
	}
	if strings.Count(page, "<h2>discovery attribution</h2>") != 1 || !strings.Contains(page, "<th>crashes</th>") {
		t.Fatal("page lacks the one discovery attribution table with crashes")
	}
	if strings.Contains(page, "rarity") {
		t.Fatal("page still has a rarity section")
	}
	// Without events the journal sections are omitted entirely.
	bare := string(HTMLReport("t", "l", sampleCorpus(), nil, nil))
	if strings.Contains(bare, "journal (") || strings.Contains(bare, "coverage-delta") {
		t.Fatal("event sections rendered with no events")
	}
}

func TestCoverageDelta(t *testing.T) {
	e3 := 3
	events := []Event{
		{Kind: KindNovelty, Stage: "seed", Execs: 1, Cells: []uint32{7}},
		{Kind: KindCycle, Cycle: 2},
		{Kind: KindNovelty, Stage: "havoc", Execs: 40, Entry: &e3, Worker: 1,
			Cells: []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	var b strings.Builder
	CoverageDelta(&b, events, func(c uint32) string { return fmt.Sprintf("meaning-%d", c) })
	out := b.String()
	for _, want := range []string{
		"warmup exec 1 seed entry #-1 w0: 1 cells",
		"00007 meaning-7",
		"cycle 2 exec 40 havoc entry #3 w1: 10 cells",
		"… 2 more",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CoverageDelta missing %q:\n%s", want, out)
		}
	}
	// nil resolver renders raw indices; no events renders the marker.
	b.Reset()
	CoverageDelta(&b, events[:1], nil)
	if !strings.Contains(b.String(), "    00007\n") {
		t.Errorf("nil-resolver output:\n%s", b.String())
	}
	b.Reset()
	CoverageDelta(&b, nil, nil)
	if !strings.Contains(b.String(), "(no novelty events)") {
		t.Errorf("empty output:\n%s", b.String())
	}
}
