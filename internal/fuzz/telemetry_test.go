package fuzz

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// TestTelemetryDoesNotPerturb is the observability contract: attaching
// a recorder must not change a single campaign decision. Two same-seed
// campaigns, one instrumented, must produce identical reports.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	p := compileT(t, fig1)
	run := func(rec *telemetry.Recorder) *Report {
		f, err := New(p, Options{
			Feedback:  instrument.FeedbackPath,
			Seed:      11,
			MapSize:   1 << 12,
			Telemetry: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.AddSeed([]byte("hello"))
		f.AddSeed([]byte("abcd"))
		f.Fuzz(25000)
		return f.Report()
	}
	plain := run(nil)
	rec := telemetry.New(telemetry.Config{})
	instrumented := run(rec)

	if !reflect.DeepEqual(plain.Stats, instrumented.Stats) {
		t.Errorf("telemetry perturbed Stats:\nplain: %+v\nwith:  %+v", plain.Stats, instrumented.Stats)
	}
	if plain.QueueLen != instrumented.QueueLen || len(plain.Bugs) != len(instrumented.Bugs) {
		t.Errorf("telemetry perturbed campaign: queue %d vs %d, bugs %d vs %d",
			plain.QueueLen, instrumented.QueueLen, len(plain.Bugs), len(instrumented.Bugs))
	}

	// The published snapshot mirrors the final stats exactly.
	s := rec.Latest()
	if s == nil {
		t.Fatal("no snapshot published")
	}
	if s.Execs != instrumented.Stats.Execs || s.Timeouts != instrumented.Stats.Timeouts ||
		s.CrashExecs != instrumented.Stats.CrashExecs || s.Added != instrumented.Stats.Added {
		t.Errorf("snapshot %+v does not mirror stats %+v", s.Counters, instrumented.Stats)
	}
	if s.QueueLen != int64(instrumented.QueueLen) {
		t.Errorf("snapshot QueueLen = %d, report says %d", s.QueueLen, instrumented.QueueLen)
	}
	// Calibration and havoc spans were recorded.
	if aggs := rec.StageStats(); len(aggs) == 0 {
		t.Error("no stage spans recorded during campaign")
	}
}

// TestStatusOutputIsDisplayOnly: enabling the status line must not
// change campaign results (it reads the clock, so this guards against
// accidental feedback into fuzzing decisions). The line is a view of
// the collector's samples, so a collector ticking as fast as it can,
// printing every sample, must leave the campaign untouched.
func TestStatusOutputIsDisplayOnly(t *testing.T) {
	p := compileT(t, fig1)
	run := func(rec *telemetry.Recorder) *Report {
		f, err := New(p, Options{
			Feedback:  instrument.FeedbackPath,
			Seed:      9,
			MapSize:   1 << 12,
			Telemetry: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.AddSeed([]byte("hello"))
		f.Fuzz(15000)
		return f.Report()
	}
	plain := run(nil)
	var status bytes.Buffer
	live := telemetry.New(telemetry.Config{Status: &status})
	live.StartCollector(time.Microsecond)
	noisy := run(live)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, noisy.Stats) || plain.QueueLen != noisy.QueueLen {
		t.Errorf("status line perturbed the campaign:\nplain: %+v\nnoisy: %+v", plain.Stats, noisy.Stats)
	}
	lines := strings.Split(strings.TrimSpace(status.String()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, fmt.Sprintf(" execs_done=%d ", noisy.Stats.Execs)) {
		t.Errorf("final status line %q does not report execs_done=%d", last, noisy.Stats.Execs)
	}
}

// TestStageExecsPartitionExecs: every execution is attributed to
// exactly one stage, so the per-stage counters sum to the total.
func TestStageExecsPartitionExecs(t *testing.T) {
	p := compileT(t, fig1)
	f, err := New(p, Options{Feedback: instrument.FeedbackPath, Seed: 5, MapSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte("hello"))
	f.Fuzz(30000)
	st := f.Report().Stats
	sum := st.SeedExecs + st.HavocExecs + st.SpliceExecs + st.CmplogExecs
	if sum != st.Execs {
		t.Errorf("stage execs %d+%d+%d+%d = %d, want total %d",
			st.SeedExecs, st.HavocExecs, st.SpliceExecs, st.CmplogExecs, sum, st.Execs)
	}
	if st.SeedExecs == 0 || st.HavocExecs == 0 {
		t.Errorf("expected nonzero seed (%d) and havoc (%d) execs", st.SeedExecs, st.HavocExecs)
	}
}
