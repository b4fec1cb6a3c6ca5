package telemetry

import "time"

// Point is one time-series sample: the counters at sample time plus
// the rates derived from the interval since the previous sample. Rates
// are per second of wall-clock time.
type Point struct {
	Elapsed time.Duration `json:"elapsed_ns"`
	Counters

	ExecsPerSec    float64 `json:"execs_per_sec"`
	NoveltyPerSec  float64 `json:"novelty_per_sec"`
	CrashesPerSec  float64 `json:"crashes_per_sec"`
	TimeoutsPerSec float64 `json:"timeouts_per_sec"`
	MapDensity     float64 `json:"map_density"`
}

// derivePoint folds a snapshot (and the previous sampled one, which
// may be nil) into a series point. With no predecessor, rates are
// computed over the snapshot's whole elapsed time, so the very first
// sample of a campaign is already meaningful. A total smaller than its
// predecessor's comes from a restarted counter set (each round of a
// round-based strategy runs a fresh fuzzer on the same recorder), so
// its own value is the interval's delta.
func derivePoint(prev, s *Snapshot) Point {
	p := Point{Elapsed: s.Elapsed, Counters: s.Counters, MapDensity: s.MapDensity()}
	dt := s.Elapsed
	if prev != nil {
		dt -= prev.Elapsed
	}
	sec := dt.Seconds()
	if sec <= 0 {
		return p
	}
	for _, row := range counterRows {
		if row.rate == nil {
			continue
		}
		d := *row.field(&p.Counters)
		if prev != nil && d >= *row.field(&prev.Counters) {
			d -= *row.field(&prev.Counters)
		}
		*row.rate(&p) = float64(d) / sec
	}
	return p
}

// series is a fixed-capacity ring of points.
type series struct {
	buf   []Point
	next  int
	count int
}

func newSeries(capacity int) *series {
	return &series{buf: make([]Point, capacity)}
}

func (s *series) push(p Point) {
	s.buf[s.next] = p
	s.next = (s.next + 1) % len(s.buf)
	if s.count < len(s.buf) {
		s.count++
	}
}

// points returns the retained samples, oldest first (a copy).
func (s *series) points() []Point {
	out := make([]Point, 0, s.count)
	start := s.next - s.count
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.count; i++ {
		out = append(out, s.buf[(start+i)%len(s.buf)])
	}
	return out
}

func (s *series) last() (Point, bool) {
	if s.count == 0 {
		return Point{}, false
	}
	i := s.next - 1
	if i < 0 {
		i += len(s.buf)
	}
	return s.buf[i], true
}
