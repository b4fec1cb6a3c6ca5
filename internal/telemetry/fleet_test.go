package telemetry

import (
	"sync"
	"testing"
)

func TestAggregateSumsAndMaxes(t *testing.T) {
	a := Counters{Execs: 100, UniqueBugs: 2, UniqueCrashes: 3, QueueLen: 5, MaxDepth: 3, MapSize: 1 << 12,
		CoverageCount: 4000, CoverageBits: 30, ElidedProbes: 8, PatchSites: 20}
	b := Counters{Execs: 50, UniqueBugs: 1, UniqueCrashes: 4, QueueLen: 7, MaxDepth: 9, MapSize: 1 << 12,
		CoverageCount: 3000, CoverageBits: 45, ElidedProbes: 12, PatchSites: 20}
	got := Aggregate(a, b)
	if got.Execs != 150 || got.QueueLen != 12 {
		t.Fatalf("cumulative fields not summed: %+v", got)
	}
	if got.MaxDepth != 9 {
		t.Fatalf("MaxDepth = %d, want max(3, 9)", got.MaxDepth)
	}
	if got.MapSize != 1<<12 {
		t.Fatalf("MapSize = %d, want the first non-zero value", got.MapSize)
	}
	// Workers cover one map and run one program: a sum of their
	// coverage could exceed the map, so the aggregate takes the maximum.
	if got.CoverageCount != 4000 || got.CoverageBits != 45 {
		t.Fatalf("coverage = %d/%d, want max 4000/45", got.CoverageCount, got.CoverageBits)
	}
	if got.ElidedProbes != 12 || got.PatchSites != 20 {
		t.Fatalf("CGT plan = %d/%d, want max 12/20", got.ElidedProbes, got.PatchSites)
	}
	// Workers find overlapping bugs: a sum would over-count what the
	// merged report dedups, so the unique counts take the maximum too.
	if got.UniqueBugs != 2 || got.UniqueCrashes != 4 {
		t.Fatalf("unique bugs/crashes = %d/%d, want max 2/4", got.UniqueBugs, got.UniqueCrashes)
	}
	if got.CoverageCount > got.MapSize {
		t.Fatalf("aggregate coverage %d exceeds the %d-cell map", got.CoverageCount, got.MapSize)
	}
}

// TestWorkerAggregateMonotone runs two concurrent per-worker
// publishers with monotonically increasing counters and a reader that
// continuously aggregates. Each worker's published Execs only ever
// grows, so the fleet aggregate must never be observed to decrease —
// the per-worker slots are independent atomics, and a torn aggregate
// (one worker's new value with another's stale one) is still a valid
// intermediate state. Run under -race this also proves the publish
// path is race-free against concurrent readers.
func TestWorkerAggregateMonotone(t *testing.T) {
	const steps = 2000
	r := New(Config{})

	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 1; i <= steps; i++ {
				r.PublishWorker(id, Counters{
					Execs:    int64(i),
					QueueLen: int64(i % 7),
					MaxDepth: int64(i % 5),
				})
			}
		}(id)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var last int64
	for {
		agg := r.AggregateWorkers()
		if agg.Execs < last {
			t.Errorf("aggregate Execs decreased: %d -> %d", last, agg.Execs)
			break
		}
		last = agg.Execs
		select {
		case <-done:
			wg.Wait()
			if got := r.AggregateWorkers().Execs; got != 2*steps {
				t.Fatalf("final aggregate Execs = %d, want %d", got, 2*steps)
			}
			if ws := r.Workers(); len(ws) != 2 || ws[0].ID != 0 || ws[1].ID != 1 {
				t.Fatalf("Workers() = %+v, want ids [0 1]", ws)
			}
			return
		default:
		}
	}
}
