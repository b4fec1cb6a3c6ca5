package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

func metricsServer(t *testing.T) (*Recorder, *httptest.Server) {
	t.Helper()
	clk := newFakeClock()
	r := New(Config{Now: clk.now, Info: goldenInfo()})
	clk.advance(2 * time.Second)
	r.Publish(goldenSnapshot().Counters)
	if _, ok := r.Sample(); !ok {
		t.Fatal("sample skipped")
	}
	r.Span(StageHavoc, 5*time.Microsecond)
	r.Span(StageCheckpoint, 3*time.Millisecond)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	return r, srv
}

func fetch(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestMetricsEndpoint(t *testing.T) {
	_, srv := metricsServer(t)
	code, body, ctype := fetch(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type %q, want Prometheus text format", ctype)
	}
	for _, want := range []string{
		"pafuzz_execs_total 12345",
		"pafuzz_repeat_execs_total 321",
		"pafuzz_queue_depth 40",
		"pafuzz_coverage_count 25",
		"pafuzz_stage_duration_seconds_bucket",
		`stage="havoc"`,
		`stage="checkpoint"`,
		"pafuzz_stage_duration_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Histogram buckets must be cumulative and end with +Inf.
	if !strings.Contains(body, `le="+Inf"`) {
		t.Error("/metrics histogram has no +Inf bucket")
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	_, srv := metricsServer(t)
	code, body, ctype := fetch(t, srv.URL+"/snapshot.json")
	if code != http.StatusOK {
		t.Fatalf("/snapshot.json status %d", code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("content type %q, want JSON", ctype)
	}
	var snap JSONSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot does not decode: %v", err)
	}
	if snap.Latest == nil || snap.Latest.Execs != 12345 {
		t.Errorf("snapshot Latest = %+v, want Execs 12345", snap.Latest)
	}
	if snap.Info.Banner != "flvmeta/path" {
		t.Errorf("snapshot Info.Banner = %q", snap.Info.Banner)
	}
	if len(snap.Series) != 1 {
		t.Errorf("snapshot Series has %d points, want 1", len(snap.Series))
	}
	if len(snap.Stages) != 2 {
		t.Errorf("snapshot Stages has %d entries, want 2", len(snap.Stages))
	}
}

func TestDashboardAndNotFound(t *testing.T) {
	_, srv := metricsServer(t)
	code, body, ctype := fetch(t, srv.URL+"/")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/html") {
		t.Fatalf("dashboard status %d ctype %q", code, ctype)
	}
	if !strings.Contains(body, "snapshot.json") {
		t.Error("dashboard does not poll snapshot.json")
	}
	if code, _, _ := fetch(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", code)
	}
}

// TestMetricsBeforeFirstPublish ensures the endpoints do not panic on a
// recorder that has produced no snapshot yet.
func TestMetricsBeforeFirstPublish(t *testing.T) {
	r := New(Config{})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/snapshot.json", "/"} {
		if code, _, _ := fetch(t, srv.URL+path); code != http.StatusOK {
			t.Errorf("%s before publish: status %d", path, code)
		}
	}
}

func TestCoverageEndpoint(t *testing.T) {
	r, srv := metricsServer(t)

	// Without a registered page the endpoint 404s rather than guessing.
	if code, _, _ := fetch(t, srv.URL+"/coverage"); code != http.StatusNotFound {
		t.Fatalf("/coverage with no page: status %d, want 404", code)
	}

	r.SetCoveragePage(func(w io.Writer, events []journal.Event) error {
		fmt.Fprintf(w, "<!doctype html><html><body>coverage: %d events</body></html>", len(events))
		return nil
	})
	// A page but no journal dir still 404s: there is nothing to render.
	if code, _, _ := fetch(t, srv.URL+"/coverage"); code != http.StatusNotFound {
		t.Fatalf("/coverage with no journal: status %d, want 404", code)
	}

	dir := t.TempDir()
	jw, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jw.Emit(journal.Event{Kind: journal.KindNovelty, Stage: "havoc", Cells: []uint32{1, 2}})
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	r.SetJournalDir(dir)
	code, body, ctype := fetch(t, srv.URL+"/coverage")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/html") {
		t.Fatalf("/coverage status %d ctype %q", code, ctype)
	}
	if !strings.Contains(body, "coverage: 1 events") {
		t.Errorf("/coverage body %q", body)
	}

	// The dashboard links to the page.
	if _, dash, _ := fetch(t, srv.URL+"/"); !strings.Contains(dash, `href="coverage"`) {
		t.Error("dashboard has no coverage link")
	}
}

func TestCellResolverRoundTrip(t *testing.T) {
	r := New(Config{})
	if r.resolver() != nil {
		t.Fatal("fresh recorder has a resolver")
	}
	r.SetCellResolver(func(c uint32) string { return "x" })
	if got := r.resolver()(7); got != "x" {
		t.Fatalf("resolver() = %q", got)
	}
}
