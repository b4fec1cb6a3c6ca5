package telemetry

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is the injectable clock behind deterministic tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestPublishLatest(t *testing.T) {
	clk := newFakeClock()
	r := New(Config{Now: clk.now})
	if r.Latest() != nil {
		t.Fatal("Latest before any Publish should be nil")
	}
	clk.advance(3 * time.Second)
	r.Publish(Counters{Execs: 100, CoverageCount: 4, MapSize: 16})
	s := r.Latest()
	if s == nil || s.Execs != 100 {
		t.Fatalf("Latest = %+v, want Execs 100", s)
	}
	if s.Elapsed != 3*time.Second {
		t.Errorf("Elapsed = %v, want 3s", s.Elapsed)
	}
	if got := s.MapDensity(); got != 0.25 {
		t.Errorf("MapDensity = %v, want 0.25", got)
	}
	if (&Snapshot{}).MapDensity() != 0 {
		t.Error("MapDensity with zero MapSize should be 0")
	}
}

func TestElapsedBase(t *testing.T) {
	clk := newFakeClock()
	r := New(Config{Now: clk.now, ElapsedBase: time.Minute})
	clk.advance(time.Second)
	if got := r.Elapsed(); got != time.Minute+time.Second {
		t.Fatalf("Elapsed = %v, want 1m1s", got)
	}
}

// TestSampleRates pins the rate derivation: the first sample rates over
// the whole elapsed time, later samples over the inter-sample delta,
// and sampling without progress is skipped.
func TestSampleRates(t *testing.T) {
	clk := newFakeClock()
	r := New(Config{Now: clk.now})

	if _, ok := r.Sample(); ok {
		t.Fatal("Sample before any Publish should report ok=false")
	}

	clk.advance(2 * time.Second)
	r.Publish(Counters{Execs: 1000, Added: 10, CrashExecs: 4, Timeouts: 2})
	p, ok := r.Sample()
	if !ok {
		t.Fatal("first sample not taken")
	}
	if p.ExecsPerSec != 500 || p.NoveltyPerSec != 5 || p.CrashesPerSec != 2 || p.TimeoutsPerSec != 1 {
		t.Errorf("first-sample rates = %v/%v/%v/%v, want 500/5/2/1",
			p.ExecsPerSec, p.NoveltyPerSec, p.CrashesPerSec, p.TimeoutsPerSec)
	}

	// No new publish: skipped.
	if _, ok := r.Sample(); ok {
		t.Fatal("sample without progress should be skipped")
	}

	clk.advance(1 * time.Second)
	r.Publish(Counters{Execs: 3000, Added: 10, CrashExecs: 4, Timeouts: 2})
	p, ok = r.Sample()
	if !ok {
		t.Fatal("second sample not taken")
	}
	if p.ExecsPerSec != 2000 || p.NoveltyPerSec != 0 {
		t.Errorf("second-sample rates = %v/%v, want 2000/0", p.ExecsPerSec, p.NoveltyPerSec)
	}
	if pts := r.Points(); len(pts) != 2 {
		t.Fatalf("Points = %d entries, want 2", len(pts))
	}
	if last, ok := r.LastPoint(); !ok || last.Execs != 3000 {
		t.Errorf("LastPoint = %+v ok=%v, want Execs 3000", last, ok)
	}
}

// TestSampleRatesSurviveReset: a round-based strategy runs a fresh
// fuzzer on the same recorder each round, so the published counters
// restart. The sample after a restart rates the new counters over the
// interval instead of going negative.
func TestSampleRatesSurviveReset(t *testing.T) {
	clk := newFakeClock()
	r := New(Config{Now: clk.now})
	clk.advance(time.Second)
	r.Publish(Counters{Execs: 50000, Added: 40, CrashExecs: 9, Timeouts: 3})
	if _, ok := r.Sample(); !ok {
		t.Fatal("first sample not taken")
	}
	clk.advance(2 * time.Second)
	r.Publish(Counters{Execs: 2000, Added: 4, CrashExecs: 2, Timeouts: 0})
	p, ok := r.Sample()
	if !ok {
		t.Fatal("sample after the reset not taken")
	}
	if p.ExecsPerSec != 1000 || p.NoveltyPerSec != 2 || p.CrashesPerSec != 1 || p.TimeoutsPerSec != 0 {
		t.Errorf("post-reset rates = %v/%v/%v/%v, want 1000/2/1/0",
			p.ExecsPerSec, p.NoveltyPerSec, p.CrashesPerSec, p.TimeoutsPerSec)
	}
	for _, pt := range r.Points() {
		if pt.ExecsPerSec < 0 || pt.NoveltyPerSec < 0 || pt.CrashesPerSec < 0 || pt.TimeoutsPerSec < 0 {
			t.Errorf("negative rate in series point %+v", pt)
		}
	}
}

// TestSeriesRing verifies the sample ring drops the oldest points.
func TestSeriesRing(t *testing.T) {
	clk := newFakeClock()
	r := New(Config{Now: clk.now, SeriesCap: 4})
	for i := 1; i <= 6; i++ {
		clk.advance(time.Second)
		r.Publish(Counters{Execs: int64(i * 100)})
		if _, ok := r.Sample(); !ok {
			t.Fatalf("sample %d skipped", i)
		}
	}
	pts := r.Points()
	if len(pts) != 4 {
		t.Fatalf("ring retained %d points, want 4", len(pts))
	}
	for i, want := range []int64{300, 400, 500, 600} {
		if pts[i].Execs != want {
			t.Errorf("point %d Execs = %d, want %d", i, pts[i].Execs, want)
		}
	}
}

func TestInfoDefaultsGoVersion(t *testing.T) {
	r := New(Config{Info: Info{Banner: "a/b", Engine: "bytecode", Seed: 3}})
	got := r.Info()
	if got.Engine != "bytecode" || got.Banner != "a/b" || got.Seed != 3 || got.GoVersion == "" {
		t.Errorf("Info = %+v, want the configured identity with GoVersion defaulted", got)
	}
}

func TestSpanHistogram(t *testing.T) {
	clk := newFakeClock()
	r := New(Config{Now: clk.now, SpanCap: 8})

	r.Span(StageHavoc, 100*time.Nanosecond)
	r.Span(StageHavoc, 100*time.Nanosecond)
	r.Span(StageHavoc, 5*time.Microsecond)
	r.Span(StageCmplog, time.Millisecond)

	aggs := r.StageStats()
	if len(aggs) != 2 {
		t.Fatalf("StageStats has %d stages, want 2 (havoc, cmplog)", len(aggs))
	}
	havoc := aggs[0]
	if havoc.Stage != "havoc" || havoc.Count != 3 {
		t.Fatalf("first agg = %+v, want havoc x3", havoc)
	}
	if havoc.MinNs != 100 || havoc.MaxNs != 5000 || havoc.TotalNs != 5200 {
		t.Errorf("havoc min/max/total = %d/%d/%d, want 100/5000/5200", havoc.MinNs, havoc.MaxNs, havoc.TotalNs)
	}
	// 100ns lands in bucket [64, 128), 5µs in [4096, 8192).
	var total int64
	for _, b := range havoc.Buckets {
		total += b.Count
		if b.LowNs != 64 && b.LowNs != 4096 {
			t.Errorf("unexpected havoc bucket low %d", b.LowNs)
		}
		if b.LowNs == 64 && b.Count != 2 {
			t.Errorf("bucket [64,128) count = %d, want 2", b.Count)
		}
	}
	if total != 3 {
		t.Errorf("bucket counts sum to %d, want 3", total)
	}

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("Spans retained %d, want 4", len(spans))
	}
	if spans[0].Name != "havoc" || spans[3].Name != "cmplog" {
		t.Errorf("span order wrong: %v ... %v", spans[0].Name, spans[3].Name)
	}
}

func TestSpanRingWraps(t *testing.T) {
	r := New(Config{SpanCap: 4})
	for i := 0; i < 10; i++ {
		r.Span(StageHavoc, time.Duration(i+1)*time.Microsecond)
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	if spans[0].Dur != 7*time.Microsecond || spans[3].Dur != 10*time.Microsecond {
		t.Errorf("ring kept %v..%v, want 7µs..10µs", spans[0].Dur, spans[3].Dur)
	}
	if agg := r.StageStats(); agg[0].Count != 10 {
		t.Errorf("histogram count = %d, want 10 (histograms never drop)", agg[0].Count)
	}
}

func TestStartSpan(t *testing.T) {
	clk := newFakeClock()
	r := New(Config{Now: clk.now})
	stop := r.StartSpan(StageCalibrate)
	clk.advance(42 * time.Millisecond)
	stop()
	aggs := r.StageStats()
	if len(aggs) != 1 || aggs[0].Stage != "calibrate" {
		t.Fatalf("StageStats = %+v", aggs)
	}
	if aggs[0].TotalNs != int64(42*time.Millisecond) {
		t.Errorf("span duration = %dns, want 42ms", aggs[0].TotalNs)
	}
}

func TestDurBucket(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {-5, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
	}
	for _, c := range cases {
		if got := durBucket(c.d); got != c.want {
			t.Errorf("durBucket(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	if durBucket(time.Duration(1)<<62) != histBuckets-1 {
		t.Error("huge durations must clamp to the last bucket")
	}
	if BucketLow(0) != 0 || BucketLow(10) != 1024 {
		t.Error("BucketLow bounds wrong")
	}
}

func TestStageNames(t *testing.T) {
	names := StageNames()
	if len(names) != int(numStages) {
		t.Fatalf("StageNames has %d entries, want %d", len(names), numStages)
	}
	if StageCheckpoint.String() != "checkpoint" || Stage(200).String() != "unknown" {
		t.Error("Stage.String misbehaves")
	}
}

// TestCollectorConcurrency drives the collector goroutine, the HTTP
// aggregation reads, and a publisher concurrently — the test exists to
// run under -race, pinning the lock-free publish contract.
func TestCollectorConcurrency(t *testing.T) {
	r := New(Config{})
	r.StartCollector(time.Millisecond)
	r.StartCollector(time.Millisecond) // second start is a no-op

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= 2000; i++ {
			r.Publish(Counters{Execs: i, Added: i / 10})
			r.Span(StageHavoc, time.Microsecond)
		}
	}()
	for i := 0; i < 50; i++ {
		r.Latest()
		r.Points()
		r.StageStats()
		r.promMetrics()
	}
	<-done
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Close takes a final sample, so the last publish is always visible.
	if last, ok := r.LastPoint(); !ok || last.Execs != 2000 {
		t.Fatalf("LastPoint after Close = %+v ok=%v, want Execs 2000", last, ok)
	}
	if err := r.Close(); err != nil {
		t.Fatal("second Close should be a no-op, got", err)
	}
}
