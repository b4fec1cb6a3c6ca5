package telemetry

import (
	"math/bits"
	"sync"
	"time"
)

// Stage identifies a fuzzer stage for span tracing. The set follows
// AFL's stage taxonomy where this fuzzer has a timed stage: splice runs
// inside havoc (attributed by exec counters, not spans) and there is no
// trim stage.
type Stage uint8

// Stages.
const (
	// StageCalibrate covers seed execution and first-run calibration.
	StageCalibrate Stage = iota
	// StageHavoc covers one queue entry's havoc/splice budget.
	StageHavoc
	// StageCmplog covers the input-to-state stage of one entry.
	StageCmplog
	// StageCheckpoint covers writing one campaign checkpoint.
	StageCheckpoint
	// StageRetrace covers the CGT engine's full-instrumentation
	// re-executions of suspected-novel or crashing inputs.
	StageRetrace
	numStages
)

var stageNames = [numStages]string{
	"calibrate", "havoc", "cmplog", "checkpoint", "retrace",
}

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames lists every stage name in enum order.
func StageNames() []string { return stageNames[:] }

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts spans with duration in [2^i, 2^(i+1)) nanoseconds. 40 buckets
// reach ~18 minutes, far beyond any stage. The idiom matches the
// coverage map's power-of-two hit-count bucketing.
const histBuckets = 40

// durBucket maps a duration to its power-of-two bucket index.
func durBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	return time.Duration(1) << uint(i)
}

// SpanRec is one completed stage execution in the ring buffer.
type SpanRec struct {
	Stage Stage         `json:"-"`
	Name  string        `json:"stage"`
	At    time.Duration `json:"at_ns"`  // elapsed time when the span ended
	Dur   time.Duration `json:"dur_ns"` // span duration
}

// stageHist aggregates one stage's latencies.
type stageHist struct {
	count   int64
	totalNs int64
	minNs   int64
	maxNs   int64
	buckets [histBuckets]int64
}

// StageAgg is the exported aggregate view of one stage.
type StageAgg struct {
	Stage   string `json:"stage"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MinNs   int64  `json:"min_ns"`
	MaxNs   int64  `json:"max_ns"`
	// Buckets holds the non-empty power-of-two latency buckets.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket: spans with duration
// in [LowNs, 2*LowNs).
type BucketCount struct {
	LowNs int64 `json:"low_ns"`
	Count int64 `json:"count"`
}

// spanStore is the mutex-guarded span ring plus per-stage histograms.
// Spans are recorded at stage granularity (a handful per queue entry),
// so a mutex here never contends with the exec loop.
type spanStore struct {
	mu    sync.Mutex
	ring  []SpanRec
	next  int
	count int
	hist  [numStages]stageHist
}

func newSpanStore(capacity int) *spanStore {
	return &spanStore{ring: make([]SpanRec, capacity)}
}

func (st *spanStore) record(rec SpanRec) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ring[st.next] = rec
	st.next = (st.next + 1) % len(st.ring)
	if st.count < len(st.ring) {
		st.count++
	}
	h := &st.hist[rec.Stage]
	ns := int64(rec.Dur)
	if h.count == 0 || ns < h.minNs {
		h.minNs = ns
	}
	if ns > h.maxNs {
		h.maxNs = ns
	}
	h.count++
	h.totalNs += ns
	h.buckets[durBucket(rec.Dur)]++
}

// Span records one completed stage execution of duration d.
func (r *Recorder) Span(stage Stage, d time.Duration) {
	if stage >= numStages {
		return
	}
	r.spans.record(SpanRec{Stage: stage, Name: stage.String(), At: r.Elapsed(), Dur: d})
}

// StartSpan starts timing a stage and returns the function that stops
// and records it:
//
//	defer rec.StartSpan(telemetry.StageHavoc)()
func (r *Recorder) StartSpan(stage Stage) func() {
	t0 := r.now()
	return func() { r.Span(stage, r.now().Sub(t0)) }
}

// Spans returns the retained span records, oldest first.
func (r *Recorder) Spans() []SpanRec {
	st := r.spans
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SpanRec, 0, st.count)
	start := st.next - st.count
	if start < 0 {
		start += len(st.ring)
	}
	for i := 0; i < st.count; i++ {
		out = append(out, st.ring[(start+i)%len(st.ring)])
	}
	return out
}

// StageStats returns per-stage latency aggregates in enum order,
// omitting stages that never ran.
func (r *Recorder) StageStats() []StageAgg {
	st := r.spans
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []StageAgg
	for s := Stage(0); s < numStages; s++ {
		h := &st.hist[s]
		if h.count == 0 {
			continue
		}
		agg := StageAgg{
			Stage:   s.String(),
			Count:   h.count,
			TotalNs: h.totalNs,
			MinNs:   h.minNs,
			MaxNs:   h.maxNs,
		}
		for i, c := range h.buckets {
			if c != 0 {
				agg.Buckets = append(agg.Buckets, BucketCount{LowNs: int64(BucketLow(i)), Count: c})
			}
		}
		out = append(out, agg)
	}
	return out
}
