package telemetry

// Counters is the typed registry of campaign counters a fuzzer
// publishes. All fields are cumulative totals (rates are derived by
// the collector from consecutive snapshots); gauge-like fields
// (QueueLen, Favored, ...) carry the value at publish time. Every
// field has exactly one row in counterRows, which names it on every
// observer surface.
type Counters struct {
	// Execution totals.
	Execs      int64
	Timeouts   int64
	CrashExecs int64
	TotalSteps int64
	Cycles     int64
	// Added counts queue entries ever added — the novelty event count
	// behind the novelty-rate sampler.
	Added            int64
	UniqueCrashes    int64
	UniqueBugs       int64
	AFLUniqueCrashes int64
	InternalFaults   int64

	// Queue gauges.
	QueueLen       int64
	Favored        int64
	PendingTotal   int64 // queue entries never fuzzed
	PendingFavored int64 // favored entries never fuzzed (pending calibration analogue)
	CurItem        int64 // queue index currently being fuzzed
	MaxDepth       int64 // deepest mutation chain in the queue

	// Coverage gauges. CoverageCount is the number of map indices ever
	// touched; CoverageBits is the number of consumed virgin cells
	// (AFL's bitmap coverage); MapSize normalizes both into densities.
	CoverageCount int64
	CoverageBits  int64
	MapSize       int64

	// Per-stage execution attribution (counts, not times — these stay
	// deterministic and are checkpointed with the campaign's Stats).
	SeedExecs   int64
	HavocExecs  int64
	SpliceExecs int64
	CmplogExecs int64

	// RepeatExecs counts the executions the fuzzer answered from its
	// memo of recent inputs instead of running the target. They are
	// charged to Execs, TotalSteps and the stage counters like any
	// other; like the CGT counters below, this one is display-only and
	// never checkpointed.
	RepeatExecs int64

	// Coverage-guided tracing engine counters (zero for the other
	// engines). FastExecs/Retraces/Replans are cumulative; ElidedProbes
	// and PatchSites are gauges describing the current patch plan.
	FastExecs    int64
	Retraces     int64
	Replans      int64
	ElidedProbes int64
	PatchSites   int64

	// Fleet supervision counters (zero for single-fuzzer campaigns).
	// The fleet supervisor fills these on the aggregate snapshot it
	// publishes; per-worker snapshots leave them zero.
	FleetWorkers     int64 // configured worker count
	FleetActive      int64 // workers currently running or backing off before a restart
	FleetRestarts    int64 // worker restarts (panic or wedge recoveries)
	FleetWedges      int64 // watchdog wedge declarations
	FleetRetired     int64 // workers retired after K consecutive failures
	FleetQuarantined int64 // poison inputs quarantined
}

// counterRow is one Counters field's entry on every observer surface:
// its fuzzer_stats key, its /metrics series and help text, whether it
// is a gauge (a value at publish time) or a running total, and how a
// fleet aggregate combines the workers' values. The per-worker /metrics
// series is the metric name with "pafuzz_" replaced by "pafuzz_worker_".
type counterRow struct {
	stats, metric, help string
	typ                 metricType
	fleet               fleetAgg
	field               func(*Counters) *int64
	// rate, when set, is the Point field that carries this total's
	// per-second rate.
	rate func(*Point) *float64
}

// metricType is a row's Prometheus type: a running total or a value at
// publish time.
type metricType string

const (
	counter metricType = "counter"
	gauge   metricType = "gauge"
)

// fleetAgg says how a fleet aggregate combines the workers' values.
type fleetAgg uint8

const (
	sum fleetAgg = iota
	maxOf
	// supervisor marks the fleet supervisor's own counters: it sets them
	// on the aggregate it publishes, a worker's are always 0, and so
	// they have no per-worker series.
	supervisor
)

// counterRows lists every campaign counter once, in fuzzer_stats
// order. Sums suit totals and per-worker queues (the fleet-wide queue
// depth is the sum of per-worker queues). The rows that describe one
// shared map, program or finding set take the maximum: workers cover
// overlapping cells and find overlapping bugs, so a sum could exceed
// the map and over-count findings, and the maximum is a lower bound on
// the fleet's union (the fleet supervisor's closing publish replaces
// the unique counts with the merged report's exact ones).
var counterRows = []counterRow{
	{"cycles_done", "pafuzz_cycles_total", "Completed queue cycles.", counter, sum,
		func(c *Counters) *int64 { return &c.Cycles }, nil},
	{"execs_done", "pafuzz_execs_total", "Total target executions.", counter, sum,
		func(c *Counters) *int64 { return &c.Execs }, func(p *Point) *float64 { return &p.ExecsPerSec }},
	{"total_steps", "pafuzz_steps_total", "Total execution steps charged, repeats included.", counter, sum,
		func(c *Counters) *int64 { return &c.TotalSteps }, nil},
	{"repeat_execs", "pafuzz_repeat_execs_total", "Executions answered from the repeat memo without running the target; included in pafuzz_execs_total.", counter, sum,
		func(c *Counters) *int64 { return &c.RepeatExecs }, nil},
	{"corpus_count", "pafuzz_queue_depth", "Current queue size.", gauge, sum,
		func(c *Counters) *int64 { return &c.QueueLen }, nil},
	{"queue_added", "pafuzz_queue_added_total", "Queue entries ever added (novelty events).", counter, sum,
		func(c *Counters) *int64 { return &c.Added }, func(p *Point) *float64 { return &p.NoveltyPerSec }},
	{"corpus_favored", "pafuzz_queue_favored", "Favored (set-cover) corpus size.", gauge, sum,
		func(c *Counters) *int64 { return &c.Favored }, nil},
	{"pending_total", "pafuzz_queue_pending", "Queue entries never fuzzed.", gauge, sum,
		func(c *Counters) *int64 { return &c.PendingTotal }, nil},
	{"pending_favs", "pafuzz_queue_pending_favored", "Favored entries never fuzzed.", gauge, sum,
		func(c *Counters) *int64 { return &c.PendingFavored }, nil},
	{"cur_item", "pafuzz_queue_cur_item", "Queue index currently being fuzzed.", gauge, maxOf,
		func(c *Counters) *int64 { return &c.CurItem }, nil},
	{"max_depth", "pafuzz_queue_max_depth", "Deepest mutation chain in the queue.", gauge, maxOf,
		func(c *Counters) *int64 { return &c.MaxDepth }, nil},
	{"edges_found", "pafuzz_coverage_count", "Coverage map indices ever touched.", gauge, maxOf,
		func(c *Counters) *int64 { return &c.CoverageCount }, nil},
	{"coverage_bits", "pafuzz_coverage_bits", "Consumed virgin map cells.", gauge, maxOf,
		func(c *Counters) *int64 { return &c.CoverageBits }, nil},
	{"map_cells", "pafuzz_map_cells", "Cells in the coverage map.", gauge, maxOf,
		func(c *Counters) *int64 { return &c.MapSize }, nil},
	{"saved_crashes", "pafuzz_unique_bugs_total", "Unique ground-truth bugs.", counter, maxOf,
		func(c *Counters) *int64 { return &c.UniqueBugs }, nil},
	{"unique_crashes", "pafuzz_unique_crashes_total", "Unique crashes by stack hash.", counter, maxOf,
		func(c *Counters) *int64 { return &c.UniqueCrashes }, nil},
	{"afl_crashes", "pafuzz_afl_unique_crashes_total", "Crashes unique by AFL's rule (the crash covered a tuple no earlier crash did).", counter, sum,
		func(c *Counters) *int64 { return &c.AFLUniqueCrashes }, nil},
	{"saved_hangs", "pafuzz_timeouts_total", "Executions ended by the step limit.", counter, sum,
		func(c *Counters) *int64 { return &c.Timeouts }, func(p *Point) *float64 { return &p.TimeoutsPerSec }},
	{"total_crashes", "pafuzz_crash_execs_total", "Executions that crashed.", counter, sum,
		func(c *Counters) *int64 { return &c.CrashExecs }, func(p *Point) *float64 { return &p.CrashesPerSec }},
	{"internal_faults", "pafuzz_internal_faults_total", "Quarantined harness panics.", counter, sum,
		func(c *Counters) *int64 { return &c.InternalFaults }, nil},
	{"execs_seed", "pafuzz_stage_execs_total_seed", "Executions spent on seed calibration.", counter, sum,
		func(c *Counters) *int64 { return &c.SeedExecs }, nil},
	{"execs_havoc", "pafuzz_stage_execs_total_havoc", "Executions spent in havoc mutations.", counter, sum,
		func(c *Counters) *int64 { return &c.HavocExecs }, nil},
	{"execs_splice", "pafuzz_stage_execs_total_splice", "Executions spent in splice mutations.", counter, sum,
		func(c *Counters) *int64 { return &c.SpliceExecs }, nil},
	{"execs_cmplog", "pafuzz_stage_execs_total_cmplog", "Executions spent in the cmplog stage.", counter, sum,
		func(c *Counters) *int64 { return &c.CmplogExecs }, nil},
	{"cgt_fast_execs", "pafuzz_cgt_fast_execs_total", "CGT executions dispatched to the patched machine.", counter, sum,
		func(c *Counters) *int64 { return &c.FastExecs }, nil},
	{"cgt_retraces", "pafuzz_cgt_retraces_total", "CGT fast executions re-run under full instrumentation.", counter, sum,
		func(c *Counters) *int64 { return &c.Retraces }, nil},
	{"cgt_replans", "pafuzz_cgt_replans_total", "CGT patch-plan recomputations (cycle starts and checkpoint restores).", counter, sum,
		func(c *Counters) *int64 { return &c.Replans }, nil},
	{"cgt_elided_probes", "pafuzz_cgt_elided_probes", "Probe sites the current CGT patch plan elides.", gauge, maxOf,
		func(c *Counters) *int64 { return &c.ElidedProbes }, nil},
	{"cgt_patch_sites", "pafuzz_cgt_patch_sites", "Statically patchable probe sites of the CGT program.", gauge, maxOf,
		func(c *Counters) *int64 { return &c.PatchSites }, nil},
	{"fleet_workers", "pafuzz_fleet_workers", "Configured fleet worker count (0 for single campaigns).", gauge, supervisor,
		func(c *Counters) *int64 { return &c.FleetWorkers }, nil},
	{"fleet_active", "pafuzz_fleet_active", "Fleet workers currently running or backing off before a restart.", gauge, supervisor,
		func(c *Counters) *int64 { return &c.FleetActive }, nil},
	{"fleet_restarts", "pafuzz_fleet_restarts_total", "Fleet worker restarts (panic or wedge recoveries).", counter, supervisor,
		func(c *Counters) *int64 { return &c.FleetRestarts }, nil},
	{"fleet_wedges", "pafuzz_fleet_wedges_total", "Watchdog wedge declarations.", counter, supervisor,
		func(c *Counters) *int64 { return &c.FleetWedges }, nil},
	{"fleet_retired", "pafuzz_fleet_retired_total", "Workers retired after repeated failures.", counter, supervisor,
		func(c *Counters) *int64 { return &c.FleetRetired }, nil},
	{"fleet_quarantined", "pafuzz_fleet_quarantined_total", "Poison inputs quarantined by the fleet supervisor.", counter, supervisor,
		func(c *Counters) *int64 { return &c.FleetQuarantined }, nil},
}

// Aggregate combines counter sets across fleet workers, each row by
// its sum or maximum.
func Aggregate(cs ...Counters) Counters {
	var out Counters
	for _, c := range cs {
		for _, row := range counterRows {
			acc, v := row.field(&out), *row.field(&c)
			if row.fleet == maxOf {
				*acc = max(*acc, v)
			} else {
				*acc += v
			}
		}
	}
	return out
}
