// Package journal implements the campaign forensics layer: a bounded,
// append-only structured event journal (JSONL segments with schema
// versioning, atomic rotation, and resume-gapless sequence numbers), a
// crash flight recorder (a fixed-size ring of recent events per worker,
// dumped next to each finding), and the corpus-provenance vocabulary
// (CorpusMeta) shared by the fuzzer's reports, paprof's genealogy
// renderers, and the telemetry dashboard.
//
// The package is a leaf: it depends only on the standard library, so
// internal/fuzz can import it without cycles. Everything here is
// display-only — events describe campaign decisions after the fact and
// never feed back into them; a campaign with a journal attached is
// byte-identical to one without.
//
// Events carry no wall-clock timestamps. Campaigns are deterministic in
// execution count, and an event stream keyed by (seq, execs) lets a
// resumed campaign replay to an identical journal tail — a timestamp
// would differ on every run and break the byte-comparison the resume
// determinism suite performs.
package journal

// SchemaVersion is the journal event schema version. Every event line
// records it; readers reject lines with a version they do not know.
const SchemaVersion = 1

// Event kinds. The set mirrors the campaign lifecycle: fuzzer-level
// events (start through finish) are emitted at queue-entry granularity
// by the fuzz loop, fleet-level events (recycle through quarantine) by
// the supervisor. sync appears only in journals older builds wrote.
const (
	// KindStart opens a campaign's event stream: feedback, engine, and
	// seed. Emitted once per campaign (never re-emitted on resume).
	KindStart = "start"
	// KindCalibrate records one seed execution (admitted or not).
	KindCalibrate = "calibrate"
	// KindNovelty records a queue admission: the entry id, its parent,
	// the discovering stage, and the map cells it discovered first.
	KindNovelty = "novelty"
	// KindCrash records a new unique crash (new stack hash or new
	// ground-truth bug key); deduplicated re-crashes are not events.
	KindCrash = "crash"
	// KindTimeout records a timeout execution that produced coverage
	// novelty (plain timeouts are counted, not journaled).
	KindTimeout = "timeout"
	// KindFault records a new quarantined internal fault (interpreter
	// panic survived by the campaign).
	KindFault = "fault"
	// KindCycle marks a queue-cycle start.
	KindCycle = "cycle"
	// KindReplan records a CGT probe-elision replan at a cycle start.
	KindReplan = "replan"
	// KindFinish closes a completed campaign (budget reached).
	KindFinish = "finish"
	// KindSync recorded one fleet corpus-sync epoch for one worker.
	// Only older builds wrote it (corpus sync is gone); it stays known
	// so their journals still validate.
	KindSync = "sync"
	// KindRecycle records a worker restart after a failed attempt.
	KindRecycle = "recycle"
	// KindRetire records a worker retirement (restart budget exhausted).
	KindRetire = "retire"
	// KindWedge records a watchdog wedge declaration.
	KindWedge = "wedge"
	// KindQuarantine records a poison-input quarantine.
	KindQuarantine = "quarantine"
)

// KnownKinds is the schema's event-kind vocabulary, used by Validate.
var KnownKinds = map[string]bool{
	KindStart: true, KindCalibrate: true, KindNovelty: true,
	KindCrash: true, KindTimeout: true, KindFault: true,
	KindCycle: true, KindReplan: true, KindFinish: true,
	KindSync: true, KindRecycle: true, KindRetire: true,
	KindWedge: true, KindQuarantine: true,
}

// supervisorKind reports whether the fleet supervisor emits kind about
// a worker; a worker's campaign emits every other kind.
func supervisorKind(kind string) bool {
	switch kind {
	case KindRecycle, KindRetire, KindWedge, KindQuarantine:
		return true
	}
	return false
}

// Event is one journal line. The schema is flat: a fixed header (Seq,
// V, Kind, Worker, Execs) plus per-kind payload fields that marshal
// only when set, so every kind shares one Go type and the JSONL stays
// self-describing. Deliberately no time.Time anywhere (see the package
// comment).
type Event struct {
	// Seq is the journal-assigned sequence number: strictly increasing
	// by one across segment rotations and resumes (gapless).
	Seq uint64 `json:"seq"`
	// V is the schema version (SchemaVersion at write time).
	V int `json:"v"`
	// Kind is one of the Kind constants.
	Kind string `json:"kind"`
	// Worker is the fleet worker id (0 for single campaigns).
	Worker int `json:"worker"`
	// Gen is the worker attempt generation (fleet recycles bump it).
	Gen int `json:"gen,omitempty"`
	// Execs is the emitting campaign's execution counter.
	Execs int64 `json:"execs"`

	// Stage attributes the event to the mutation stage that issued the
	// triggering execution (seed|havoc|splice|cmplog).
	Stage string `json:"stage,omitempty"`
	// Entry is the queue entry id a novelty event admitted.
	Entry *int `json:"entry,omitempty"`
	// Parent is the admitted entry's parent id (-1 for seeds).
	Parent *int `json:"parent,omitempty"`
	// Depth is the entry's mutation-chain depth.
	Depth int `json:"depth,omitempty"`
	// Steps is the execution cost of the triggering run.
	Steps int64 `json:"steps,omitempty"`
	// Len is the input length involved, in bytes.
	Len int `json:"len,omitempty"`
	// Cells lists the coverage-map cells this entry discovered first
	// (the feedback-kind-specific map cell / path ids).
	Cells []uint32 `json:"cells,omitempty"`
	// Cov is a coverage count (entry sparse-cov size, or the campaign
	// covered-cell total on cycle/finish events).
	Cov int `json:"cov,omitempty"`
	// Queue is the queue length at emission.
	Queue int `json:"queue,omitempty"`
	// Cycle is the queue-cycle ordinal.
	Cycle int `json:"cycle,omitempty"`
	// Crashes / Bugs are unique-crash and unique-bug totals.
	Crashes int `json:"crashes,omitempty"`
	Bugs    int `json:"bugs,omitempty"`
	// Hash is the crash stack hash (hex).
	Hash string `json:"hash,omitempty"`
	// Bug is the ground-truth bug key.
	Bug string `json:"bug,omitempty"`
	// Msg carries free-form detail (fault/wedge/recycle reasons,
	// calibration status).
	Msg string `json:"msg,omitempty"`
	// Epoch / Published / Imported describe one fleet sync point of a
	// journal an older build wrote (KindSync).
	Epoch     int `json:"epoch,omitempty"`
	Published int `json:"published,omitempty"`
	Imported  int `json:"imported,omitempty"`
	// Elided / Sites describe a CGT replan (elided probe sites out of
	// the patchable total).
	Elided int `json:"elided,omitempty"`
	Sites  int `json:"sites,omitempty"`
	// Feedback / Engine / Seed identify the campaign on start events.
	Feedback string `json:"feedback,omitempty"`
	Engine   string `json:"engine,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Status is the execution status string on calibrate events.
	Status string `json:"status,omitempty"`
	// Admitted marks calibrate events whose seed entered the queue.
	Admitted bool `json:"admitted,omitempty"`
}

// Int returns a pointer to v, for the optional id fields (Entry,
// Parent) where 0 and -1 are meaningful values that omitempty would
// otherwise swallow.
func Int(v int) *int { return &v }

// SanitizeName maps an arbitrary key to a safe filename: characters
// outside [a-zA-Z0-9._-] become '_', and the result is capped at 128
// bytes. Mirrors the campaign findings-directory convention so flight
// dumps sit next to their crash inputs under matching names.
func SanitizeName(s string) string {
	if s == "" {
		return "x"
	}
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_':
		default:
			b[i] = '_'
		}
	}
	if len(b) > 128 {
		b = b[:128]
	}
	return string(b)
}
