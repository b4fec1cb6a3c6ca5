package fuzz

import "encoding/binary"

// interesting values injected by the havoc stage, per AFL's tables.
var (
	interesting8  = []int8{-128, -1, 0, 1, 16, 32, 64, 100, 127}
	interesting16 = []int16{-32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767}
	interesting32 = []int32{-2147483648, -100663046, -32769, 32768, 65535, 65536, 100663045, 2147483647}
)

// mutator implements AFL-style havoc and splice mutations.
type mutator struct {
	rng    *rng
	maxLen int
	// dict holds the auto (cmplog-derived) tokens.
	dict [][]byte
	// rich enables the AFL++-profile extras (dictionary ops, wide
	// interesting values); the plain-AFL profile runs without them.
	rich bool
	// buf and spl are reusable candidate buffers: havoc builds its
	// output in buf and splice assembles the merged parent in spl, so
	// the steady-state fuzzing loop allocates nothing per candidate.
	// A returned candidate aliases buf and is valid only until the
	// next havoc/splice call; every retention path (queue, crash
	// records, cmplog) copies.
	buf []byte
	spl []byte
}

func (m *mutator) randLen(max int) int {
	// Favor small blocks, as AFL's choose_block_len does.
	switch m.rng.Intn(10) {
	case 0:
		return 1 + m.rng.Intn(maxInt(max, 1))
	case 1, 2, 3:
		return 1 + m.rng.Intn(minInt(8, maxInt(max, 1)))
	default:
		return 1 + m.rng.Intn(minInt(32, maxInt(max, 1)))
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// havoc applies a random stack of mutations to a copy of data. The
// result aliases the mutator's pooled buffer.
func (m *mutator) havoc(data []byte) []byte {
	if need := len(data) + 64; cap(m.buf) < need {
		m.buf = make([]byte, 0, need*2)
	}
	out := m.buf[:len(data)]
	copy(out, data)
	stack := 1 << (1 + m.rng.Intn(6)) // 2..64 stacked ops
	for i := 0; i < stack; i++ {
		out = m.one(out)
		if len(out) > m.maxLen {
			out = out[:m.maxLen]
		}
	}
	if len(out) == 0 {
		out = append(out, byte(m.rng.Intn(256)))
	}
	m.buf = out[:0] // recapture a buffer grown by append
	return out
}

// splice combines data with other at random cut points, then havocs the
// result.
func (m *mutator) splice(data, other []byte) []byte {
	if len(data) == 0 || len(other) == 0 {
		return m.havoc(data)
	}
	cutA := m.rng.Intn(len(data))
	cutB := m.rng.Intn(len(other))
	if need := cutA + len(other) - cutB; cap(m.spl) < need {
		m.spl = make([]byte, 0, need*2)
	}
	merged := append(m.spl[:0], data[:cutA]...)
	merged = append(merged, other[cutB:]...)
	if len(merged) > m.maxLen {
		merged = merged[:m.maxLen]
	}
	return m.havoc(merged)
}

// one applies a single random mutation.
func (m *mutator) one(out []byte) []byte {
	nOps := 12
	if m.rich {
		nOps = 15
	}
	if len(out) == 0 {
		// Only insertion makes sense on an empty input.
		return m.insertRandom(out)
	}
	switch m.rng.Intn(nOps) {
	case 0: // flip a bit
		p := m.rng.Intn(len(out))
		out[p] ^= 1 << m.rng.Intn(8)
	case 1: // set random byte
		out[m.rng.Intn(len(out))] = byte(m.rng.Intn(256))
	case 2: // add/sub byte
		p := m.rng.Intn(len(out))
		out[p] += byte(1 + m.rng.Intn(35))
	case 3:
		p := m.rng.Intn(len(out))
		out[p] -= byte(1 + m.rng.Intn(35))
	case 4: // interesting 8-bit
		out[m.rng.Intn(len(out))] = byte(interesting8[m.rng.Intn(len(interesting8))])
	case 5: // interesting 16-bit
		if len(out) >= 2 {
			p := m.rng.Intn(len(out) - 1)
			v := uint16(interesting16[m.rng.Intn(len(interesting16))])
			if m.rng.Intn(2) == 0 {
				binary.LittleEndian.PutUint16(out[p:], v)
			} else {
				binary.BigEndian.PutUint16(out[p:], v)
			}
		}
	case 6: // add/sub 16-bit
		if len(out) >= 2 {
			p := m.rng.Intn(len(out) - 1)
			v := binary.LittleEndian.Uint16(out[p:])
			if m.rng.Intn(2) == 0 {
				v += uint16(1 + m.rng.Intn(35))
			} else {
				v -= uint16(1 + m.rng.Intn(35))
			}
			binary.LittleEndian.PutUint16(out[p:], v)
		}
	case 7: // delete block
		if len(out) > 1 {
			l := m.randLen(len(out) - 1)
			p := m.rng.Intn(len(out) - l + 1)
			out = append(out[:p], out[p+l:]...)
		}
	case 8: // insert block (repeated or random bytes)
		out = m.insertBlock(out)
	case 9: // overwrite block by copy within
		if len(out) >= 2 {
			l := m.randLen(len(out) / 2)
			src := m.rng.Intn(len(out) - l + 1)
			dst := m.rng.Intn(len(out) - l + 1)
			copy(out[dst:dst+l], out[src:src+l])
		}
	case 10: // swap two bytes
		a, b := m.rng.Intn(len(out)), m.rng.Intn(len(out))
		out[a], out[b] = out[b], out[a]
	case 11: // truncate tail
		if len(out) > 1 {
			out = out[:1+m.rng.Intn(len(out)-1)]
		}
	case 12: // interesting 32-bit (rich profile)
		if len(out) >= 4 {
			p := m.rng.Intn(len(out) - 3)
			v := uint32(interesting32[m.rng.Intn(len(interesting32))])
			if m.rng.Intn(2) == 0 {
				binary.LittleEndian.PutUint32(out[p:], v)
			} else {
				binary.BigEndian.PutUint32(out[p:], v)
			}
		}
	case 13: // overwrite with dictionary token (rich profile)
		if tok := m.token(); tok != nil && len(tok) <= len(out) {
			p := m.rng.Intn(len(out) - len(tok) + 1)
			copy(out[p:], tok)
		}
	case 14: // insert dictionary token (rich profile)
		if tok := m.token(); tok != nil {
			p := m.rng.Intn(len(out) + 1)
			out = insertAt(out, p, tok)
		}
	}
	return out
}

func (m *mutator) token() []byte {
	if len(m.dict) == 0 {
		return nil
	}
	return m.dict[m.rng.Intn(len(m.dict))]
}

func (m *mutator) insertRandom(out []byte) []byte {
	n := 1 + m.rng.Intn(8)
	for i := 0; i < n; i++ {
		out = append(out, byte(m.rng.Intn(256)))
	}
	return out
}

// insertBlock mirrors AFL's clone op: usually a copy of an existing
// block from the input (which lets runs of structure — nesting
// characters, repeated records — grow), sometimes a constant or random
// block.
func (m *mutator) insertBlock(out []byte) []byte {
	l := m.randLen(32)
	p := m.rng.Intn(len(out) + 1)
	var blockArr [32]byte
	block := blockArr[:l]
	switch m.rng.Intn(4) {
	case 0, 1: // clone from the input itself
		if len(out) > 0 {
			src := m.rng.Intn(len(out))
			for i := range block {
				block[i] = out[(src+i)%len(out)]
			}
		}
	case 2: // repeated constant byte
		b := byte(m.rng.Intn(256))
		for i := range block {
			block[i] = b
		}
	default: // random bytes
		for i := range block {
			block[i] = byte(m.rng.Intn(256))
		}
	}
	return insertAt(out, p, block)
}

// insertAt inserts blk into out at p using only out's own growth; blk
// must not alias out.
func insertAt(out []byte, p int, blk []byte) []byte {
	n := len(out)
	out = append(out, blk...)
	copy(out[p+len(blk):], out[p:n])
	copy(out[p:], blk)
	return out
}
