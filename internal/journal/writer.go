package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Options tunes a journal Writer. Zero values select defaults.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it grows past
	// this size (default 4 MiB).
	MaxSegmentBytes int64
	// MaxSegments caps retained segments; the oldest are pruned after
	// rotation (default 64). Pruning trims the stream's head, never its
	// tail, so the surviving suffix stays gapless.
	MaxSegments int
	// RingSize is the per-worker flight-recorder capacity (default 64
	// events).
	RingSize int
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 64
	}
	if o.RingSize <= 0 {
		o.RingSize = 64
	}
	return o
}

const (
	segPrefix = "seg-"
	segSuffix = ".jsonl"
	// FlightDir is the journal subdirectory holding flight-recorder
	// dumps.
	FlightDir = "flight"
)

func segName(i int) string { return fmt.Sprintf("%s%06d%s", segPrefix, i, segSuffix) }

func segIndex(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.Atoi(name[len(segPrefix) : len(name)-len(segSuffix)])
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// Writer is an append-only JSONL event journal. It is safe for
// concurrent use: a fleet's workers and supervisor share one Writer,
// which assigns the global gapless sequence. All methods are nil-safe,
// so callers thread an optional *Writer without guarding every call.
//
// Write errors are sticky: the first failure (disk full, permission
// lost) silently degrades the journal to a no-op rather than killing
// the campaign — journaling is forensics, never control flow. Err
// reports the degradation.
type Writer struct {
	mu   sync.Mutex
	dir  string
	opts Options

	seq      uint64 // last assigned sequence number
	segIdx   int    // active segment ordinal (1-based)
	segBytes int64
	f        *os.File
	buf      *bytes.Buffer
	err      error

	// rings holds the per-worker flight recorders: the last RingSize
	// events tagged with each worker id (supervisor events about a
	// worker land in that worker's ring too).
	rings map[int]*flightRing
}

// Open creates or re-opens the journal under dir. Re-opening validates
// the newest segment line by line and truncates any torn or corrupt
// tail (the analogue of the checkpoint loader's corrupt-skip fallback),
// then continues the sequence from the last intact event — the
// mechanism behind resume-gapless numbering.
func Open(dir string, opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{dir: dir, opts: opts, buf: &bytes.Buffer{}, rings: make(map[int]*flightRing)}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// Walk segments newest-first until one yields an intact event; torn
	// tails are truncated in place so the appended stream stays valid
	// JSONL. An entirely-corrupt newer segment is emptied (not deleted)
	// and writing resumes in it, keeping segment ordinals monotone.
	for i := len(segs) - 1; i >= 0; i-- {
		idx, _ := segIndex(segs[i])
		path := filepath.Join(dir, segs[i])
		valid, lastSeq, n, serr := scanSegment(path)
		if serr != nil {
			return nil, fmt.Errorf("journal: %w", serr)
		}
		if fi, ferr := os.Stat(path); ferr == nil && fi.Size() > valid {
			if terr := os.Truncate(path, valid); terr != nil {
				return nil, fmt.Errorf("journal: recovering %s: %w", segs[i], terr)
			}
		}
		if n > 0 {
			w.seq = lastSeq
			w.segIdx = idx
			w.segBytes = valid
			break
		}
		if i == len(segs)-1 {
			// Keep the (now empty) newest segment as the active one.
			w.segIdx = idx
			w.segBytes = 0
		}
	}
	if w.segIdx == 0 {
		w.segIdx = 1
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(w.segIdx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w.f = f
	return w, nil
}

// listSegments returns segment filenames under dir in ascending ordinal
// order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if _, ok := segIndex(e.Name()); ok && !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// scanSegment reads one segment and returns the byte length of its
// valid line prefix, the last valid event's sequence number, and the
// valid event count. A line that is torn (no trailing newline), not
// JSON, or not a known-schema event ends the valid prefix: everything
// after it is unrecoverable because the sequence chain is broken.
func scanSegment(path string) (validBytes int64, lastSeq uint64, n int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, 0, nil
		}
		return 0, 0, 0, err
	}
	off := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail
		}
		var ev Event
		if jerr := json.Unmarshal(data[:nl], &ev); jerr != nil || ev.Seq == 0 || ev.Kind == "" {
			break
		}
		off += int64(nl + 1)
		lastSeq = ev.Seq
		n++
		data = data[nl+1:]
	}
	return off, lastSeq, n, nil
}

// Emit appends one event, assigning its sequence number and schema
// version. Display-only by construction: the caller's event value is
// copied, and emission failures degrade silently (sticky error).
func (w *Writer) Emit(ev Event) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.seq++
	ev.Seq = w.seq
	ev.V = SchemaVersion
	line, err := json.Marshal(ev)
	if err != nil {
		w.err = err
		return
	}
	w.buf.Write(line)
	w.buf.WriteByte('\n')
	w.segBytes += int64(len(line) + 1)
	w.ringAdd(ev)
	if w.segBytes >= w.opts.MaxSegmentBytes {
		w.rotateLocked()
	} else if w.buf.Len() >= 64<<10 {
		w.flushLocked()
	}
}

func (w *Writer) flushLocked() {
	if w.err != nil || w.buf.Len() == 0 {
		return
	}
	if _, err := w.f.Write(w.buf.Bytes()); err != nil {
		w.err = err
		return
	}
	w.buf.Reset()
}

// rotateLocked seals the active segment and opens the next one, then
// prunes the oldest segments past the retention cap. Rotation is
// atomic from a reader's perspective: the old segment is complete
// before the new name exists.
func (w *Writer) rotateLocked() {
	w.flushLocked()
	if w.err != nil {
		return
	}
	if err := w.f.Close(); err != nil {
		w.err = err
		return
	}
	w.segIdx++
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.segIdx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.err = err
		return
	}
	w.f = f
	w.segBytes = 0
	if segs, lerr := listSegments(w.dir); lerr == nil && len(segs) > w.opts.MaxSegments {
		for _, s := range segs[:len(segs)-w.opts.MaxSegments] {
			os.Remove(filepath.Join(w.dir, s))
		}
	}
}

// Flush pushes buffered events to the OS. The campaign checkpoint path
// calls it so every event preceding a checkpoint is durable before the
// checkpoint claims the state it describes.
func (w *Writer) Flush() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushLocked()
}

// Close flushes and closes the active segment.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushLocked()
	err := w.err
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	if w.err == nil {
		w.err = fmt.Errorf("journal: writer closed")
	}
	return err
}

// Seq returns the last assigned sequence number.
func (w *Writer) Seq() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Err returns the sticky degradation error, if any.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Dir returns the journal directory.
func (w *Writer) Dir() string {
	if w == nil {
		return ""
	}
	return w.dir
}

// TruncateTo drops every event worker's campaign emitted after its
// n-th, the restore rule: a campaign restored from a checkpoint taken
// after its n-th event replays the executions that emitted the dropped
// events and re-emits them, so none appears twice and the worker's
// k-th event in stream order is its k-th emitted one. The supervisor's
// recycle, retire, wedge and quarantine events about the worker stay,
// as do other workers' events; those after the first dropped event are
// renumbered, so the stream stays gapless. A single campaign is the
// only worker of its journal: it loses exactly its events past seq n,
// and its resumed journal is byte-identical to an uninterrupted one.
//
// An empty journal's sequence counter jumps to n, so a campaign whose
// journal was lost keeps its uninterrupted stream's numbering. Worker
// events are counted from the oldest retained segment, so a journal
// whose head retention pruned can keep some events it should drop.
func (w *Writer) TruncateTo(worker int, n uint64) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	// The replay refills the worker's flight ring; events from the
	// abandoned timeline must not leak into its dumps.
	delete(w.rings, worker)
	if w.seq == 0 {
		w.seq = n
		return nil
	}
	w.flushLocked()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Close(); err != nil {
		w.err = err
		return err
	}
	w.f = nil
	segs, err := listSegments(w.dir)
	if err != nil {
		w.err = err
		return err
	}
	var (
		own     uint64
		next    uint64   // the next kept event's seq once one is dropped
		dropped []uint64 // the dropped events' seqs, ascending
		active  = 1      // the newest remaining segment
		size    int64
	)
	for _, name := range segs {
		path := filepath.Join(w.dir, name)
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			w.err = rerr
			return rerr
		}
		var out bytes.Buffer
		changed := false
		for rest := data; len(rest) > 0; {
			line := rest
			if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
				line, rest = rest[:nl+1], rest[nl+1:]
			} else {
				rest = nil
			}
			var ev Event
			if json.Unmarshal(line, &ev) != nil {
				out.Write(line)
				continue
			}
			if ev.Worker == worker && !supervisorKind(ev.Kind) {
				if own++; own > n {
					if next == 0 {
						next = ev.Seq
					}
					dropped = append(dropped, ev.Seq)
					changed = true
					continue
				}
			}
			if next != 0 {
				ev.Seq = next
				next++
				renumbered, merr := json.Marshal(ev)
				if merr != nil {
					w.err = merr
					return merr
				}
				line = append(renumbered, '\n')
				changed = true
			}
			out.Write(line)
		}
		if changed && out.Len() == 0 {
			// Every event here is dropped: the segment goes too.
			if rmerr := os.Remove(path); rmerr != nil {
				w.err = rmerr
				return rmerr
			}
			continue
		}
		if changed {
			// Rewrite via temp+rename so a crash mid-truncation leaves
			// either the old or the new segment, never a torn one.
			tmp := path + ".tmp"
			if werr := os.WriteFile(tmp, out.Bytes(), 0o644); werr != nil {
				w.err = werr
				return werr
			}
			if rerr := os.Rename(tmp, path); rerr != nil {
				w.err = rerr
				return rerr
			}
		}
		active, _ = segIndex(name)
		size = int64(out.Len())
	}
	if next != 0 {
		w.seq = next - 1
		// Other workers' ring events keep their renumbered seqs.
		for _, r := range w.rings {
			for i := range r.buf {
				if s := r.buf[i].Seq; s > dropped[0] {
					r.buf[i].Seq = s - uint64(sort.Search(len(dropped), func(j int) bool { return dropped[j] > s }))
				}
			}
		}
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segName(active)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.err = err
		return err
	}
	w.f, w.segIdx, w.segBytes = f, active, size
	return nil
}

// flightRing is one worker's fixed-size recent-event buffer.
type flightRing struct {
	buf  []Event
	next int
	full bool
}

func (w *Writer) ringAdd(ev Event) {
	r := w.rings[ev.Worker]
	if r == nil {
		r = &flightRing{buf: make([]Event, w.opts.RingSize)}
		w.rings[ev.Worker] = r
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

func (r *flightRing) list() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// FlightEvents returns a copy of worker's flight-recorder ring, oldest
// first.
func (w *Writer) FlightEvents(worker int) []Event {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rings[worker].list()
}

// DumpFlight persists worker's flight-recorder ring as
// <dir>/flight/<name>.jsonl — the last-N-events context shipped with
// every finding. The first dump per name wins (matching the findings
// directory, which keeps the first crash input per key), and the
// journal is flushed first so the on-disk stream contains everything
// the dump refers to.
func (w *Writer) DumpFlight(name string, worker int) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.flushLocked()
	events := w.rings[worker].list()
	dir := filepath.Join(w.dir, FlightDir)
	path := filepath.Join(dir, SanitizeName(name)+".jsonl")
	if _, err := os.Stat(path); err == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	var buf bytes.Buffer
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return
	}
	os.Rename(tmp, path)
}
