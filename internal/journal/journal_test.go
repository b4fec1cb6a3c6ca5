package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// emitN appends n simple novelty events to w with ascending exec
// counters starting at base.
func emitN(t *testing.T, w *Writer, worker, n int, base int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		w.Emit(Event{
			Kind: KindNovelty, Worker: worker, Execs: base + int64(i),
			Stage: "havoc", Entry: Int(i), Parent: Int(i - 1),
		})
	}
	if err := w.Err(); err != nil {
		t.Fatalf("writer degraded: %v", err)
	}
}

func readAll(t *testing.T, dir string) ([]Event, *Diag) {
	t.Helper()
	events, diag, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	return events, diag
}

func TestWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(Event{Kind: KindStart, Feedback: "path", Engine: "bytecode", Seed: 7})
	emitN(t, w, 0, 10, 100)
	w.Emit(Event{Kind: KindCrash, Worker: 0, Execs: 200, Hash: "deadbeef", Bug: "overflow:main"})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events, diag := readAll(t, dir)
	if !diag.OK() {
		t.Fatalf("journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
	if len(events) != 12 {
		t.Fatalf("got %d events, want 12", len(events))
	}
	if events[0].Kind != KindStart || events[0].Seq != 1 {
		t.Fatalf("first event %+v, want start seq 1", events[0])
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.V != SchemaVersion {
			t.Fatalf("event %d has schema version %d", i, ev.V)
		}
	}
	last := events[len(events)-1]
	if last.Kind != KindCrash || last.Hash != "deadbeef" || last.Bug != "overflow:main" {
		t.Fatalf("crash event round-trip mangled: %+v", last)
	}
	if ev := events[5]; ev.Entry == nil || *ev.Entry != 4 || ev.Parent == nil || *ev.Parent != 3 {
		t.Fatalf("pointer fields mangled: %+v", ev)
	}
}

func TestWriterRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations; retention keeps the newest 3.
	w, err := Open(dir, Options{MaxSegmentBytes: 256, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, w, 0, 100, 0)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 3 {
		t.Fatalf("retention kept %d segments, cap is 3: %v", len(segs), segs)
	}
	// Head-pruned stream: still gapless, FirstSeq > 1.
	events, diag := readAll(t, dir)
	if !diag.OK() {
		t.Fatalf("pruned journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
	if diag.FirstSeq <= 1 {
		t.Fatalf("expected head pruning, FirstSeq=%d", diag.FirstSeq)
	}
	if events[len(events)-1].Seq != 100 {
		t.Fatalf("tail seq %d, want 100", events[len(events)-1].Seq)
	}
}

func TestWriterReopenContinuesSeq(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, w, 0, 5, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Seq() != 5 {
		t.Fatalf("reopened seq %d, want 5", w2.Seq())
	}
	emitN(t, w2, 0, 5, 5)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	events, diag := readAll(t, dir)
	if !diag.OK() || len(events) != 10 {
		t.Fatalf("after reopen: %d events, errors=%v gaps=%v", len(events), diag.Errors, diag.Gaps)
	}
}

func TestWriterRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, w, 0, 5, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last line mid-write (crash artifact).
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if w2.Seq() != 4 {
		t.Fatalf("recovered seq %d, want 4 (torn event dropped)", w2.Seq())
	}
	emitN(t, w2, 0, 1, 4)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	events, diag := readAll(t, dir)
	if !diag.OK() || len(events) != 5 {
		t.Fatalf("after torn-tail recovery: %d events, errors=%v gaps=%v", len(events), diag.Errors, diag.Gaps)
	}
}

func TestWriterRecoversCorruptLine(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, w, 0, 4, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the 3rd line in place: the valid prefix ends at event 2.
	path := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(data), "\n")
	lines[2] = "{\"garbage\": tru\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over corrupt line: %v", err)
	}
	if w2.Seq() != 2 {
		t.Fatalf("recovered seq %d, want 2 (corrupt suffix dropped)", w2.Seq())
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, diag := readAll(t, dir)
	if !diag.OK() {
		t.Fatalf("recovered journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
}

func TestTruncateTo(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, w, 0, 50, 0)

	// Truncate mid-stream: events 31..50 drop, including whole trailing
	// segments.
	if err := w.TruncateTo(0, 30); err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	if w.Seq() != 30 {
		t.Fatalf("seq after truncate %d, want 30", w.Seq())
	}
	events, diag := readAll(t, dir)
	if !diag.OK() {
		t.Fatalf("truncated journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
	if got := events[len(events)-1].Seq; got != 30 {
		t.Fatalf("tail seq %d, want 30", got)
	}

	// Appending after truncation continues from 31 — the resume replay.
	emitN(t, w, 0, 5, 30)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, diag = readAll(t, dir)
	if !diag.OK() || events[len(events)-1].Seq != 35 {
		t.Fatalf("post-truncate append broken: last=%d errors=%v gaps=%v",
			events[len(events)-1].Seq, diag.Errors, diag.Gaps)
	}
}

func TestTruncateToJumpsForward(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateTo(0, 100); err != nil {
		t.Fatal(err)
	}
	w.Emit(Event{Kind: KindCycle, Execs: 1})
	if w.Seq() != 101 {
		t.Fatalf("seq %d, want 101 (jumped to checkpoint count)", w.Seq())
	}
	w.Close()
}

// TestTruncateToKeepsPeerEvents is the fleet restore: two workers and
// the supervisor share one journal, and worker 1 restores to its 4th
// event. Its later events go, the supervisor's quarantine and recycle
// events about it stay, worker 0 keeps all of its events, and the
// stream is renumbered gapless across segments, flight rings included.
func TestTruncateToKeepsPeerEvents(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Emit(Event{Kind: KindNovelty, Worker: 0, Execs: int64(i)})
		w.Emit(Event{Kind: KindCycle, Worker: 1, Execs: int64(i)})
		if i == 6 {
			w.Emit(Event{Kind: KindQuarantine, Worker: 1, Msg: "panic"})
			w.Emit(Event{Kind: KindRecycle, Worker: 1, Gen: 1})
		}
	}
	if err := w.TruncateTo(1, 4); err != nil {
		t.Fatal(err)
	}
	events, diag := readAll(t, dir)
	if !diag.OK() || diag.FirstSeq != 1 || w.Seq() != uint64(len(events)) {
		t.Fatalf("truncated journal: %d events, seq %d, errors=%v gaps=%v", len(events), w.Seq(), diag.Errors, diag.Gaps)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[fmt.Sprintf("%d/%s", ev.Worker, ev.Kind)]++
	}
	want := map[string]int{"0/novelty": 10, "1/cycle": 4, "1/quarantine": 1, "1/recycle": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("kept %v, want %v", counts, want)
	}
	ring := w.FlightEvents(0)
	last := events[len(events)-1]
	if len(ring) != 10 || ring[9].Seq != last.Seq || ring[9].Execs != last.Execs {
		t.Fatalf("worker 0's ring ends at seq %d, the journal at %d", ring[len(ring)-1].Seq, last.Seq)
	}
	if got := w.FlightEvents(1); len(got) != 0 {
		t.Fatalf("restored worker's ring kept %d events", len(got))
	}

	// The replay appends after the kept stream.
	w.Emit(Event{Kind: KindCycle, Worker: 1, Execs: 4})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, diag = readAll(t, dir)
	if !diag.OK() || events[len(events)-1].Seq != uint64(len(events)) {
		t.Fatalf("post-truncate append broken: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
}

func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave two workers; each ring only holds its own worker's
	// events, capped at RingSize, oldest first.
	for i := 0; i < 20; i++ {
		w.Emit(Event{Kind: KindNovelty, Worker: i % 2, Execs: int64(i)})
	}
	ring := w.FlightEvents(1)
	if len(ring) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(ring))
	}
	for i, ev := range ring {
		if ev.Worker != 1 {
			t.Fatalf("ring[%d] belongs to worker %d", i, ev.Worker)
		}
		if i > 0 && ev.Seq <= ring[i-1].Seq {
			t.Fatalf("ring not oldest-first: %d after %d", ev.Seq, ring[i-1].Seq)
		}
	}

	w.DumpFlight("crash-test", 1)
	path := filepath.Join(dir, FlightDir, "crash-test.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	if n := strings.Count(string(data), "\n"); n != 8 {
		t.Fatalf("flight dump has %d lines, want 8", n)
	}

	// First dump wins: a later dump under the same name must not clobber
	// the original forensic record.
	w.Emit(Event{Kind: KindNovelty, Worker: 1, Execs: 999})
	w.DumpFlight("crash-test", 1)
	again, _ := os.ReadFile(path)
	if string(again) != string(data) {
		t.Fatal("second DumpFlight overwrote the first")
	}
	w.Close()
}

func TestTruncateClearsFlightRings(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, w, 0, 10, 0)
	if err := w.TruncateTo(0, 5); err != nil {
		t.Fatal(err)
	}
	if got := w.FlightEvents(0); len(got) != 0 {
		t.Fatalf("flight ring kept %d stale events across truncation", len(got))
	}
	w.Close()
}

func TestNilWriterIsSafe(t *testing.T) {
	var w *Writer
	w.Emit(Event{Kind: KindStart})
	w.Flush()
	w.DumpFlight("x", 0)
	if err := w.TruncateTo(0, 5); err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 0 || w.Err() != nil || w.Dir() != "" || w.FlightEvents(0) != nil {
		t.Fatal("nil writer accessors not zero")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWriters hammers one shared writer from several
// goroutines — the fleet's supervisor-plus-workers shape — and checks
// the result is a gapless, schema-clean stream. Run with -race.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const publishers = 4
	const perPublisher = 500
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				w.Emit(Event{Kind: KindNovelty, Worker: p, Execs: int64(i), Stage: "havoc"})
				if i%100 == 0 {
					w.Flush()
					_ = w.FlightEvents(p)
				}
			}
			w.DumpFlight(fmt.Sprintf("worker-%d", p), p)
		}(p)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events, diag := readAll(t, dir)
	if !diag.OK() {
		t.Fatalf("concurrent journal not OK: errors=%v gaps=%v", diag.Errors, diag.Gaps)
	}
	if len(events) != publishers*perPublisher {
		t.Fatalf("got %d events, want %d", len(events), publishers*perPublisher)
	}
	perWorker := make(map[int]int)
	for _, ev := range events {
		perWorker[ev.Worker]++
	}
	for p := 0; p < publishers; p++ {
		if perWorker[p] != perPublisher {
			t.Fatalf("worker %d has %d events, want %d", p, perWorker[p], perPublisher)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"overflow:main/3": "overflow_main_3",
		"":                "x",
		"a b\tc":          "a_b_c",
		"ok-name.txt":     "ok-name.txt",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
	long := strings.Repeat("a", 300)
	if got := SanitizeName(long); len(got) != 128 {
		t.Errorf("SanitizeName long input: len %d, want 128", len(SanitizeName(long)))
	}
}
