package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call into a layer's public function. Spans of one
// campaign share its id; Parent links a span to the span open around
// it (0 at top level).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Campaign string `json:"campaign"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; they are written
// out when the run ends. All spans are opened and closed on the
// benchmark's own goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span times fn and, in a traced run, records it as a span of layer.
func (b *bench) span(campaign, layer, name string, fn func()) time.Duration {
	if b.tr == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	t := b.tr
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Campaign: campaign, Layer: layer, Name: name})
	t.open = append(t.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.StartNs, s.EndNs = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	return end.Sub(start)
}

// recorderSpans bounds the stage spans one campaign's recorder keeps.
const recorderSpans = 1 << 16

// recorder returns a telemetry recorder for the traced pass (nil
// otherwise): its stage spans time the cmplog stage inside Fuzz.
func (b *bench) recorder(traced bool) *telemetry.Recorder {
	if !traced {
		return nil
	}
	return telemetry.New(telemetry.Config{SpanCap: recorderSpans})
}

// cmplogNs is the time a recorder's cmplog spans cover. A novel input
// found inside the cmplog stage runs its own cmplog stage, so spans
// nest; their union is counted once.
func cmplogNs(rec *telemetry.Recorder) int64 {
	if rec == nil {
		return 0
	}
	var iv [][2]int64
	for _, s := range rec.Spans() {
		if s.Stage == telemetry.StageCmplog {
			iv = append(iv, [2]int64{int64(s.At - s.Dur), int64(s.At)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		total += hi - lo
	}
	return total
}

// memDelta accumulates allocation and GC counters over timed units.
type memDelta struct {
	mallocs, bytes, pauseNs uint64
}

type memSample struct {
	ok bool
	ms runtime.MemStats
}

// readMem reads the runtime's memory counters in the traced pass only
// (ReadMemStats stops the world).
func (b *bench) readMem(traced bool) memSample {
	var s memSample
	if traced {
		runtime.ReadMemStats(&s.ms)
		s.ok = true
	}
	return s
}

func (d *memDelta) add(after, before memSample) {
	if !after.ok || !before.ok {
		return
	}
	d.mallocs += after.ms.Mallocs - before.ms.Mallocs
	d.bytes += after.ms.TotalAlloc - before.ms.TotalAlloc
	d.pauseNs += after.ms.PauseTotalNs - before.ms.PauseTotalNs
}
