package telemetry

import "time"

// Point is one time-series sample: the cumulative counters at sample
// time plus the rates derived from the interval since the previous
// sample. Rates are per second of wall-clock time.
type Point struct {
	Elapsed time.Duration `json:"elapsed_ns"`
	Execs   int64         `json:"execs"`

	ExecsPerSec    float64 `json:"execs_per_sec"`
	NoveltyPerSec  float64 `json:"novelty_per_sec"`
	CrashesPerSec  float64 `json:"crashes_per_sec"`
	TimeoutsPerSec float64 `json:"timeouts_per_sec"`

	CoverageCount int64   `json:"coverage_count"`
	CoverageBits  int64   `json:"coverage_bits"`
	MapDensity    float64 `json:"map_density"`

	QueueLen       int64 `json:"queue_len"`
	Favored        int64 `json:"favored"`
	PendingTotal   int64 `json:"pending_total"`
	PendingFavored int64 `json:"pending_favored"`
	MaxDepth       int64 `json:"max_depth"`
	CurItem        int64 `json:"cur_item"`
	Cycles         int64 `json:"cycles"`

	Crashes        int64 `json:"crashes"`
	Timeouts       int64 `json:"timeouts"`
	UniqueBugs     int64 `json:"unique_bugs"`
	UniqueCrashes  int64 `json:"unique_crashes"`
	InternalFaults int64 `json:"internal_faults"`
}

// derivePoint folds a snapshot (and the previous sampled one, which
// may be nil) into a series point. With no predecessor, rates are
// computed over the snapshot's whole elapsed time, so the very first
// sample of a campaign is already meaningful. A snapshot with fewer
// execs than its predecessor comes from a restarted counter set (each
// round of a round-based strategy runs a fresh fuzzer on the same
// recorder), so its own totals are the interval's deltas.
func derivePoint(prev, s *Snapshot) Point {
	p := Point{
		Elapsed:        s.Elapsed,
		Execs:          s.Execs,
		CoverageCount:  s.CoverageCount,
		CoverageBits:   s.CoverageBits,
		MapDensity:     s.MapDensity(),
		QueueLen:       s.QueueLen,
		Favored:        s.Favored,
		PendingTotal:   s.PendingTotal,
		PendingFavored: s.PendingFavored,
		MaxDepth:       s.MaxDepth,
		CurItem:        s.CurItem,
		Cycles:         s.Cycles,
		Crashes:        s.CrashExecs,
		Timeouts:       s.Timeouts,
		UniqueBugs:     s.UniqueBugs,
		UniqueCrashes:  s.UniqueCrashes,
		InternalFaults: s.InternalFaults,
	}
	dt := s.Elapsed
	execs, added, crashes, timeouts := s.Execs, s.Added, s.CrashExecs, s.Timeouts
	if prev != nil {
		dt -= prev.Elapsed
		if s.Execs >= prev.Execs {
			execs -= prev.Execs
			added -= prev.Added
			crashes -= prev.CrashExecs
			timeouts -= prev.Timeouts
		}
	}
	if sec := dt.Seconds(); sec > 0 {
		p.ExecsPerSec = float64(execs) / sec
		p.NoveltyPerSec = float64(added) / sec
		p.CrashesPerSec = float64(crashes) / sec
		p.TimeoutsPerSec = float64(timeouts) / sec
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
