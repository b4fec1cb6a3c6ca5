package fuzz

import (
	"bytes"
	"sort"

	"repro/internal/journal"
)

// PoisonRec is one quarantined poison-input finding: an input whose
// execution (or the queue-entry boundary right after it) took a worker
// down hard enough that the fleet supervisor had to kill or recycle the
// worker — a panic that escaped the fuzzer's own quarantine, or a wedge
// the watchdog declared. These are fleet-level findings (package fleet
// records them); they live on Report so MergeReports can fold them
// across workers and the evaluation output stays deterministic.
type PoisonRec struct {
	// Worker and Gen identify which worker attempt the input poisoned.
	Worker int
	Gen    int
	// Msg describes the failure ("injected worker panic", "watchdog:
	// wedged 2s", ...). Records are deduplicated by (Msg, Input).
	Msg string
	// Input is the poison input (the entry being fuzzed at failure time).
	Input []byte
	// Execs is the worker execution counter when the input was
	// quarantined; Count how many times the same (Msg, Input) recurred.
	Execs int64
	Count int
}

// Report summarises a finished campaign.
type Report struct {
	// Stats holds the raw counters.
	Stats Stats
	// QueueLen is the final queue size.
	QueueLen int
	// Queue holds the final queue inputs.
	Queue [][]byte
	// FavoredLen is the size of the favored (edge-preserving minimal)
	// corpus at the end of the run.
	FavoredLen int
	// Crashes lists unique crashes (stack-hash top-5 clustering),
	// ordered by discovery.
	Crashes []*CrashRec
	// Bugs maps ground-truth bug keys (site+kind) to a representative
	// crash — the analogue of the paper's manually deduplicated unique
	// bugs.
	Bugs map[string]*CrashRec
	// MapCount is the number of coverage map indices ever touched.
	MapCount int
	// Faults lists quarantined internal faults (engine panics the
	// campaign survived); the total count is Stats.InternalFaults.
	Faults []InternalFault
	// Poison lists quarantined poison-input findings (fleet-level worker
	// kills; empty for single-fuzzer campaigns). Canonically sorted by
	// (Worker, Execs, Msg).
	Poison []PoisonRec
	// Corpus lists per-entry provenance (parent lineage, discovery
	// stage, exec index, first-discovered cells) in queue order —
	// always recorded, never gated on journaling, so reports are
	// identical with a journal attached or not. Fleet merges stamp
	// each record's Worker and concatenate in worker order.
	Corpus []journal.CorpusMeta
}

// Report snapshots the campaign state.
func (f *Fuzzer) Report() *Report {
	f.cullFavored()
	r := &Report{
		Stats:      f.stats,
		QueueLen:   len(f.queue),
		Queue:      f.QueueInputs(),
		FavoredLen: f.favoredCount(),
		Bugs:       make(map[string]*CrashRec, len(f.bugs)),
		MapCount:   len(f.topRated),
		Faults:     append([]InternalFault(nil), f.faults...),
		Corpus:     f.CorpusProvenance(),
	}
	for _, rec := range f.crashes {
		r.Crashes = append(r.Crashes, rec)
	}
	sort.Slice(r.Crashes, func(i, j int) bool { return r.Crashes[i].FoundAt < r.Crashes[j].FoundAt })
	for k, rec := range f.bugs {
		r.Bugs[k] = rec
	}
	return r
}

// BugKeys returns the sorted ground-truth bug keys found. A nil report
// (e.g. an empty or failed campaign) yields nil.
func (r *Report) BugKeys() []string {
	if r == nil || len(r.Bugs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(r.Bugs))
	for k := range r.Bugs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MergeReports folds multiple campaign reports (e.g. the rounds of a
// culling run, or repeated trials) into cumulative crash/bug views.
// Queue fields are taken from the last report. Nil reports —
// an empty campaign, a round that never ran — are skipped, and crash
// records without a report attached are ignored rather than
// dereferenced, so merging a degenerate campaign cannot panic.
func MergeReports(reports ...*Report) *Report {
	out := &Report{Bugs: make(map[string]*CrashRec)}
	crashByHash := make(map[uint64]*CrashRec)
	var last *Report
	for _, r := range reports {
		if r == nil {
			continue
		}
		last = r
		out.Stats.Execs += r.Stats.Execs
		out.Stats.Timeouts += r.Stats.Timeouts
		out.Stats.CrashExecs += r.Stats.CrashExecs
		out.Stats.TotalSteps += r.Stats.TotalSteps
		out.Stats.Cycles += r.Stats.Cycles
		out.Stats.Added += r.Stats.Added
		out.Stats.AFLUniqueCrashes += r.Stats.AFLUniqueCrashes
		out.Stats.InternalFaults += r.Stats.InternalFaults
		out.Stats.SeedExecs += r.Stats.SeedExecs
		out.Stats.HavocExecs += r.Stats.HavocExecs
		out.Stats.SpliceExecs += r.Stats.SpliceExecs
		out.Stats.CmplogExecs += r.Stats.CmplogExecs
		for _, rec := range r.Crashes {
			if rec == nil || rec.Crash == nil {
				continue
			}
			h := rec.Crash.StackHash(5)
			if cur, ok := crashByHash[h]; ok {
				cur.Count += rec.Count
			} else {
				cp := *rec
				crashByHash[h] = &cp
			}
		}
		for k, rec := range r.Bugs {
			if rec == nil {
				continue
			}
			if cur, ok := out.Bugs[k]; ok {
				cur.Count += rec.Count
			} else {
				cp := *rec
				out.Bugs[k] = &cp
			}
		}
		for _, fr := range r.Faults {
			merged := false
			for i := range out.Faults {
				if out.Faults[i].Msg == fr.Msg {
					out.Faults[i].Count += fr.Count
					merged = true
					break
				}
			}
			if !merged {
				out.Faults = append(out.Faults, fr)
			}
		}
		for _, pr := range r.Poison {
			merged := false
			for i := range out.Poison {
				if out.Poison[i].Msg == pr.Msg && bytes.Equal(out.Poison[i].Input, pr.Input) {
					out.Poison[i].Count += pr.Count
					merged = true
					break
				}
			}
			if !merged {
				out.Poison = append(out.Poison, pr)
			}
		}
		// Provenance concatenates in input order; fleet callers pass
		// worker reports in worker-id order with Worker stamped, so the
		// merged corpus is canonically (worker, id)-ordered and the
		// merge is deterministic.
		out.Corpus = append(out.Corpus, r.Corpus...)
	}
	// Poison findings sort canonically so fleet-mode evaluation output
	// (eval_output.txt regeneration) is deterministic regardless of the
	// order worker reports were merged in.
	sort.Slice(out.Poison, func(i, j int) bool {
		a, b := out.Poison[i], out.Poison[j]
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Execs != b.Execs {
			return a.Execs < b.Execs
		}
		return a.Msg < b.Msg
	})
	for _, rec := range crashByHash {
		out.Crashes = append(out.Crashes, rec)
	}
	sort.Slice(out.Crashes, func(i, j int) bool { return out.Crashes[i].FoundAt < out.Crashes[j].FoundAt })
	if last != nil {
		out.QueueLen = last.QueueLen
		out.Queue = last.Queue
		out.FavoredLen = last.FavoredLen
		out.MapCount = last.MapCount
	}
	return out
}
