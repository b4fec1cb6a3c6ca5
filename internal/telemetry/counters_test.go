package telemetry

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestCounterTableComplete pins the one-list contract: setting any one
// Counters field moves exactly one row's value, every row has its own
// field and names, and fuzzer_stats and /metrics render every row,
// /metrics once for the campaign and, unless the fleet supervisor owns
// the row, once per fleet worker. A field added without a row fails
// here.
func TestCounterTableComplete(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	moved := make(map[int]bool) // rows some field moves
	for i := 0; i < typ.NumField(); i++ {
		var c Counters
		reflect.ValueOf(&c).Elem().Field(i).SetInt(7)
		var rows []string
		for j, row := range counterRows {
			if *row.field(&c) != 0 {
				rows = append(rows, row.stats)
				moved[j] = true
			}
		}
		if len(rows) != 1 {
			t.Errorf("field %s moves rows %v, want exactly one", typ.Field(i).Name, rows)
		}
	}
	if len(moved) != len(counterRows) {
		t.Errorf("%d of %d rows are moved by a field; every row must read its own field", len(moved), len(counterRows))
	}

	names := make(map[string]bool)
	for _, row := range counterRows {
		for _, name := range []string{row.stats, row.metric} {
			if names[name] {
				t.Errorf("name %q used twice", name)
			}
			names[name] = true
		}
		if !strings.HasPrefix(row.metric, "pafuzz_") || row.help == "" || (row.typ != counter && row.typ != gauge) {
			t.Errorf("row %s: metric %q, help %q, type %q", row.stats, row.metric, row.help, row.typ)
		}
	}
	// plot_data's AFL header uses map_size for the density.
	if names["map_size"] || names["map_density"] {
		t.Error("a row takes map_size or map_density")
	}

	// Distinct values per field, so a row rendering the wrong field shows.
	var c Counters
	for i := 0; i < typ.NumField(); i++ {
		reflect.ValueOf(&c).Elem().Field(i).SetInt(int64(1000 + i))
	}
	stats := string(FormatFuzzerStats(&Snapshot{Counters: c}, Info{}, 0, 0, 0))
	r := New(Config{})
	r.Publish(c)
	r.PublishWorker(3, c)
	rec := httptest.NewRecorder()
	r.serveMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := rec.Body.String()
	for _, row := range counterRows {
		v := *row.field(&c)
		if want := fmt.Sprintf("\n%-18s: %d\n", row.stats, v); !strings.Contains(stats, want) {
			t.Errorf("fuzzer_stats lacks %q", want)
		}
		if want := fmt.Sprintf("# TYPE %s %s\n%s %d\n", row.metric, row.typ, row.metric, v); !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
		// The supervisor's own counters are fleet-wide only.
		worker := "pafuzz_worker_" + strings.TrimPrefix(row.metric, "pafuzz_")
		want := fmt.Sprintf("# TYPE %s %s\n%s{worker=\"3\"} %d\n", worker, row.typ, worker, v)
		if got := strings.Contains(metrics, want); got != (row.fleet != supervisor) {
			t.Errorf("/metrics has %q: %v", want, got)
		}
	}
}
