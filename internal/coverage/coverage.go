// Package coverage implements the AFL-style coverage map machinery
// shared by every feedback mechanism in this reproduction: a fixed-size
// byte map of hit counts, power-of-two hit-count bucketing, and virgin
// bit tracking for novelty detection.
package coverage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// DefaultMapSize is the default number of coverage map entries. The
// paper configures AFL++'s map to 2^18 entries; the default here is
// smaller because MiniC subjects are smaller, and it is configurable
// everywhere.
const DefaultMapSize = 1 << 16

// Map is a hit-count coverage map. Alongside the byte array it keeps
// the list of touched entries, so the per-execution bookkeeping
// (classification, novelty scan, reset) costs O(touched) instead of
// O(map size) — small MiniC executions touch a few hundred entries of a
// 64k map, making this the difference between a usable and an unusable
// single-core evaluation. (AFL attacks the same cost with vectorised
// full-map scans; sparsity is the natural equivalent here.)
type Map struct {
	bits  []uint8
	dirty []uint32
}

// NewMap returns a map with the given number of entries (which must be
// a power of two).
func NewMap(size int) *Map {
	if size <= 0 || size&(size-1) != 0 {
		panic("coverage: map size must be a positive power of two")
	}
	return &Map{bits: make([]uint8, size)}
}

// Len returns the number of entries.
func (m *Map) Len() int { return len(m.bits) }

// Add increments the entry for index (mod size), saturating at 255.
func (m *Map) Add(index uint32) {
	i := index & uint32(len(m.bits)-1)
	switch m.bits[i] {
	case 0:
		m.dirty = append(m.dirty, i)
		m.bits[i] = 1
	case 255:
	default:
		m.bits[i]++
	}
}

// TryAdd is Add without a call, for the bytecode machine's dispatch
// loop. When index's entry is untouched and the touched list has no
// spare capacity, it reports false and leaves the map unchanged;
// Reserve then makes room. Otherwise it does exactly what Add does.
func (m *Map) TryAdd(index uint32) bool {
	i := index & uint32(len(m.bits)-1)
	c := m.bits[i]
	if c == 0 {
		n := len(m.dirty)
		if n == cap(m.dirty) {
			return false
		}
		m.dirty = m.dirty[:n+1]
		m.dirty[n] = i
	}
	if c != 255 {
		m.bits[i] = c + 1
	}
	return true
}

// Reserve grows the touched list so that n more first touches fit
// without reallocating.
func (m *Map) Reserve(n int) { m.dirty = slices.Grow(m.dirty, n) }

// Reset zeroes the map (touched entries only).
func (m *Map) Reset() {
	for _, i := range m.dirty {
		m.bits[i] = 0
	}
	m.dirty = m.dirty[:0]
}

// Bytes exposes the underlying storage (shared, not a copy).
func (m *Map) Bytes() []uint8 { return m.bits }

// Dirty exposes the touched-entry list in touch order (shared, not a
// copy; invalidated by Reset).
func (m *Map) Dirty() []uint32 { return m.dirty }

// CountNonZero returns the number of touched entries.
func (m *Map) CountNonZero() int { return len(m.dirty) }

// Indices returns the sorted list of touched entry indices. This sparse
// form is what queue entries retain (the analogue of AFL's trace_mini).
func (m *Map) Indices() []uint32 {
	out := append([]uint32(nil), m.dirty...)
	slices.Sort(out)
	return out
}

// ClassifySparse rewrites the map's raw hit counts into bucket masks in
// place, touching only dirty entries: the normalization step the paper
// describes ("power-of-two buckets") that keeps hit-count-only
// variation from exploding the queue.
func (m *Map) ClassifySparse() {
	for _, i := range m.dirty {
		m.bits[i] = bucketLUT[m.bits[i]]
	}
}

// bucket maps a raw hit count to its AFL count class.
func bucket(c uint8) uint8 {
	switch {
	case c == 0:
		return 0
	case c == 1:
		return 1
	case c == 2:
		return 2
	case c == 3:
		return 4
	case c <= 7:
		return 8
	case c <= 15:
		return 16
	case c <= 31:
		return 32
	case c <= 127:
		return 64
	default:
		return 128
	}
}

var bucketLUT = func() [256]uint8 {
	var lut [256]uint8
	for i := 0; i < 256; i++ {
		lut[i] = bucket(uint8(i))
	}
	return lut
}()

// Novelty describes the outcome of a virgin-map comparison.
type Novelty int

// Novelty levels, ordered: NoNew < NewCounts < NewTuples.
const (
	NoNew     Novelty = 0
	NewCounts Novelty = 1 // a known entry reached a new hit-count bucket
	NewTuples Novelty = 2 // a never-seen map entry was touched
)

// Virgin tracks which (entry, bucket) pairs have ever been seen. It
// follows AFL's representation: all bits start set and are cleared as
// behaviour is observed.
type Virgin struct {
	bits []uint8
	// consumed counts entries no longer fully virgin (bits != 0xff),
	// maintained incrementally so Count is O(1) — it is the "coverage
	// bits" gauge telemetry samples on every collector tick, where an
	// O(map size) rescan would not be free.
	consumed int
}

// NewVirgin returns a fresh virgin map of the given size.
func NewVirgin(size int) *Virgin {
	v := &Virgin{bits: make([]uint8, size)}
	for i := range v.bits {
		v.bits[i] = 0xff
	}
	return v
}

// Len returns the number of entries.
func (v *Virgin) Len() int { return len(v.bits) }

// Count returns the number of consumed entries — map cells where some
// behaviour has been observed. O(1).
func (v *Virgin) Count() int { return v.consumed }

// MergeSparse checks a classified map (ClassifySparse) against the
// virgin map, consumes any new bits, and reports the highest novelty
// found. Only the map's dirty entries are visited.
func (v *Virgin) MergeSparse(m *Map) Novelty {
	if m.Len() != len(v.bits) {
		panic("coverage: size mismatch")
	}
	ret := NoNew
	bits := m.bits
	for _, i := range m.dirty {
		c := bits[i]
		vb := v.bits[i]
		if vb&c != 0 {
			if vb == 0xff {
				ret = NewTuples
				v.consumed++
			} else if ret < NewCounts {
				ret = NewCounts
			}
			v.bits[i] = vb &^ c
		}
	}
	return ret
}

// VirginCell is one consumed virgin-map entry (bits != 0xff), the
// sparse unit campaign checkpoints serialize: a fresh virgin map plus
// the cell list reconstructs the exact novelty state.
type VirginCell struct {
	Index uint32
	Bits  uint8
}

// Cells returns the consumed entries in index order. A fresh map
// returns nil.
func (v *Virgin) Cells() []VirginCell {
	var out []VirginCell
	for i, b := range v.bits {
		if b != 0xff {
			out = append(out, VirginCell{Index: uint32(i), Bits: b})
		}
	}
	return out
}

// SetCells resets the map to all-virgin and applies cells, the inverse
// of Cells. Out-of-range indices are rejected (a corrupt or
// wrong-map-size checkpoint).
func (v *Virgin) SetCells(cells []VirginCell) error {
	for i := range v.bits {
		v.bits[i] = 0xff
	}
	v.consumed = 0
	for _, c := range cells {
		if int(c.Index) >= len(v.bits) {
			return fmt.Errorf("coverage: virgin cell index %d out of range for map size %d", c.Index, len(v.bits))
		}
		if v.bits[c.Index] == 0xff && c.Bits != 0xff {
			v.consumed++
		}
		v.bits[c.Index] = c.Bits
	}
	return nil
}

// Bitset is a fixed-size bit vector over coverage map cells, sized to a
// power-of-two map. It is the consumed-cell mask the coverage-guided
// tracing engine hands to the bytecode machine: Has masks its index
// exactly as Map.Add does, so the two agree on which cell any probe
// index lands in.
type Bitset struct {
	words []uint64
	mask  uint32
}

// NewBitset returns an empty bitset over size cells (a positive power
// of two, matching the coverage map it shadows).
func NewBitset(size int) *Bitset {
	if size <= 0 || size&(size-1) != 0 {
		panic("coverage: bitset size must be a positive power of two")
	}
	return &Bitset{words: make([]uint64, (size+63)/64), mask: uint32(size - 1)}
}

// Len returns the number of cells the bitset covers.
func (b *Bitset) Len() int { return int(b.mask) + 1 }

// Has reports whether the cell for index (mod size) is set.
func (b *Bitset) Has(index uint32) bool {
	i := index & b.mask
	return b.words[i>>6]>>(i&63)&1 != 0
}

// Set marks the cell for index (mod size).
func (b *Bitset) Set(index uint32) {
	i := index & b.mask
	b.words[i>>6] |= 1 << (i & 63)
}

// Clear resets every cell.
func (b *Bitset) Clear() {
	clear(b.words)
}

// Count returns the number of set cells.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ConsumedInto is FullyConsumedInto under a per-cell reachability
// mask: cell i is consumed once its remaining virgin bits are all
// outside masks[i] — every bucket that any execution can still produce
// there has been observed. A static hit-count bound analysis supplies
// the masks (an all-ones mask degenerates to the full-consumption
// rule, and masks == nil delegates to FullyConsumedInto wholesale); a
// zero mask marks a cell no probe can ever write, consumed from the
// start. Returns the number of consumed cells.
func (v *Virgin) ConsumedInto(bs *Bitset, masks []uint8) int {
	if masks == nil {
		return v.FullyConsumedInto(bs)
	}
	if bs.Len() != len(v.bits) || len(masks) != len(v.bits) {
		panic("coverage: bitset size mismatch")
	}
	bs.Clear()
	n := 0
	for i, b := range v.bits {
		if b&masks[i] == 0 {
			bs.Set(uint32(i))
			n++
		}
	}
	return n
}

// FullyConsumedInto sets bs's bit for every fully consumed virgin cell —
// one whose bits are all cleared (bits[i] == 0), meaning every hit-count
// bucket has been observed there and no execution can ever produce
// novelty at that cell again. This is the elision soundness criterion of
// coverage-preserving coverage-guided tracing (Nagy et al.): a probe
// whose cell is fully consumed can be removed without changing any
// future novelty decision. bs must match the virgin map's size; it is
// cleared first. Returns the number of fully consumed cells.
//
// The scan is word-at-a-time: eight all-virgin (0xff) or mixed bytes per
// load, with the per-byte path only for words containing at least one
// zero byte.
func (v *Virgin) FullyConsumedInto(bs *Bitset) int {
	if bs.Len() != len(v.bits) {
		panic("coverage: bitset size mismatch")
	}
	bs.Clear()
	n := 0
	i := 0
	for ; i+8 <= len(v.bits); i += 8 {
		w := binary.LittleEndian.Uint64(v.bits[i:])
		if w == 0 {
			// All eight cells fully consumed.
			bs.words[i>>6] |= 0xff << (uint(i) & 63)
			n += 8
			continue
		}
		// hasZeroByte: standard SWAR zero-byte detector.
		if (w-0x0101010101010101)&^w&0x8080808080808080 == 0 {
			continue
		}
		for j := i; j < i+8; j++ {
			if v.bits[j] == 0 {
				bs.Set(uint32(j))
				n++
			}
		}
	}
	for ; i < len(v.bits); i++ {
		if v.bits[i] == 0 {
			bs.Set(uint32(i))
			n++
		}
	}
	return n
}
