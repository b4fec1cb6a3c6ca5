package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Diag is the result of validating a journal directory: parse and
// schema errors, sequence gaps, and stream summary facts. A journal
// with a truncated final line is still OK (torn tails are the expected
// crash artifact and recovery truncates them); a gap or an unknown
// schema is not.
type Diag struct {
	Dir      string
	Segments int
	Events   int
	FirstSeq uint64
	LastSeq  uint64
	// Errors are schema violations: unparseable lines, unknown event
	// kinds, unsupported schema versions.
	Errors []string
	// Gaps are sequence discontinuities inside the stream. A stream
	// whose FirstSeq > 1 is not a gap: retention pruning trims the
	// head.
	Gaps []string
	// Torn notes segments whose tail was incomplete (informational).
	Torn []string
}

// OK reports whether the journal validates clean.
func (d *Diag) OK() bool { return len(d.Errors) == 0 && len(d.Gaps) == 0 }

// ReadDir reads every journal segment under dir in order, returning
// the event stream and a validation diagnosis. It never fails on
// malformed content — that lands in the Diag — and only returns an
// error when the directory itself is unreadable.
func ReadDir(dir string) ([]Event, *Diag, error) {
	d := &Diag{Dir: dir}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, d, fmt.Errorf("journal: %w", err)
	}
	var events []Event
	var prev uint64
	for _, name := range segs {
		d.Segments++
		data, rerr := os.ReadFile(filepath.Join(dir, name))
		if rerr != nil {
			d.Errors = append(d.Errors, fmt.Sprintf("%s: %v", name, rerr))
			continue
		}
		line := 0
		for len(data) > 0 {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				d.Torn = append(d.Torn, fmt.Sprintf("%s: torn final line (%d bytes)", name, len(data)))
				break
			}
			line++
			raw := data[:nl]
			data = data[nl+1:]
			var ev Event
			if jerr := json.Unmarshal(raw, &ev); jerr != nil {
				d.Errors = append(d.Errors, fmt.Sprintf("%s:%d: not a journal event: %v", name, line, jerr))
				continue
			}
			if ev.V != SchemaVersion {
				d.Errors = append(d.Errors, fmt.Sprintf("%s:%d: schema version %d (want %d)", name, line, ev.V, SchemaVersion))
				continue
			}
			if !KnownKinds[ev.Kind] {
				d.Errors = append(d.Errors, fmt.Sprintf("%s:%d: unknown event kind %q", name, line, ev.Kind))
				continue
			}
			// The writer numbers from 1, and no writer can continue
			// past the largest seq; Open's recovery drops a seq-0 line.
			if ev.Seq == 0 || ev.Seq == math.MaxUint64 {
				d.Errors = append(d.Errors, fmt.Sprintf("%s:%d: seq %d out of range", name, line, ev.Seq))
				continue
			}
			if prev != 0 && ev.Seq != prev+1 {
				d.Gaps = append(d.Gaps, fmt.Sprintf("%s:%d: seq %d follows %d", name, line, ev.Seq, prev))
			}
			if len(events) == 0 {
				d.FirstSeq = ev.Seq
			}
			prev = ev.Seq
			d.LastSeq = ev.Seq
			events = append(events, ev)
		}
	}
	d.Events = len(events)
	return events, d, nil
}

// KindCounts tallies the stream per event kind.
func KindCounts(events []Event) map[string]int {
	out := make(map[string]int)
	for _, ev := range events {
		out[ev.Kind]++
	}
	return out
}
