package fuzz

import (
	"bytes"
	"hash/maphash"

	"repro/internal/vm"
)

// memoSize is how many distinct inputs the execution memo remembers.
// Repeats come mostly from the cmplog stage, whose candidates follow
// the comparison observations and so repeat wherever a loop repeats a
// (find, replace) pair. One stage runs at most 48 candidates
// (cmplogStage's maxAttempts), so the ring holds every candidate of
// the stage in flight.
const memoSize = 64

// memoEntry is one remembered execution: the input and the status,
// steps and crash a repeat of it is charged with.
type memoEntry struct {
	data []byte
	res  vm.Result
}

// execMemo is a ring of the last memoSize distinct inputs a fuzzer ran,
// with their outcomes, so an input run again is answered without
// running the target.
//
// The invariant that makes a repeat free: the engine is deterministic,
// so a repeated input has its first run's status, steps and crash; and
// virgin maps only lose bits, so after its first run has been merged a
// repeat finds no novelty in either virgin map. The second half holds
// only while nothing else rewrites the virgin maps, so the fuzzer clears
// the memo at the start of every AddSeed and fuzzOne, the boundaries at
// which checkpoints are taken and CGT replans. The memo is
// never checkpointed: a restored campaign starts its next entry with an
// empty memo, exactly as an uninterrupted one does.
//
// Runs that panicked are never stored, so injected faults recur.
type execMemo struct {
	seed   maphash.Seed
	hashes [memoSize]uint64
	ents   [memoSize]memoEntry
	// n counts the valid entries, next is the slot the next store
	// overwrites, hits counts the executions the memo answered.
	n, next int
	hits    int64
}

func newExecMemo() *execMemo { return &execMemo{seed: maphash.MakeSeed()} }

// hash selects candidate slots; lookup confirms a match byte for byte,
// so the per-process seed cannot change what the memo answers.
func (m *execMemo) hash(data []byte) uint64 { return maphash.Bytes(m.seed, data) }

// lookup returns the remembered outcome of data, or nil.
func (m *execMemo) lookup(h uint64, data []byte) *memoEntry {
	for i := 0; i < m.n; i++ {
		if m.hashes[i] == h && bytes.Equal(m.ents[i].data, data) {
			return &m.ents[i]
		}
	}
	return nil
}

// store remembers res as the outcome of data, overwriting the oldest
// entry once the ring is full.
func (m *execMemo) store(h uint64, data []byte, res vm.Result) {
	if m.ents[0].data == nil {
		// The first store carves every slot from one array, maxInputLen
		// bytes each: every input the fuzzer executes fits, so no later
		// store allocates, and a fuzzer that never executes (one restored
		// only to be read) never pays for the buffers.
		buf := make([]byte, memoSize*maxInputLen)
		for i := range m.ents {
			m.ents[i].data = buf[i*maxInputLen : i*maxInputLen : (i+1)*maxInputLen]
		}
	}
	e := &m.ents[m.next]
	m.hashes[m.next] = h
	e.data = append(e.data[:0], data...)
	// Output and Cmps alias the machine's pooled buffers; nothing reads
	// them for an input that found no novelty, which every repeat is.
	e.res = vm.Result{Status: res.Status, Steps: res.Steps, Crash: res.Crash}
	m.next = (m.next + 1) % memoSize
	if m.n < memoSize {
		m.n++
	}
}

// reset forgets every entry; hits keeps counting.
func (m *execMemo) reset() { m.n, m.next = 0, 0 }
