package fuzz

import (
	"testing"
	"testing/quick"
)

func newMut(seed int64, rich bool) *mutator {
	return &mutator{rng: newRNG(seed), maxLen: 128, rich: rich}
}

func TestHavocRespectsMaxLen(t *testing.T) {
	m := newMut(1, true)
	data := make([]byte, 100)
	for i := 0; i < 2000; i++ {
		out := m.havoc(data)
		if len(out) > m.maxLen {
			t.Fatalf("havoc produced %d bytes, cap %d", len(out), m.maxLen)
		}
		if len(out) == 0 {
			t.Fatal("havoc produced an empty input")
		}
	}
}

func TestHavocDoesNotMutateArgument(t *testing.T) {
	m := newMut(2, true)
	data := []byte("immutable-argument")
	orig := append([]byte(nil), data...)
	for i := 0; i < 500; i++ {
		m.havoc(data)
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatal("havoc mutated its argument in place")
		}
	}
}

func TestHavocDeterministic(t *testing.T) {
	data := []byte("same seed same result")
	a := newMut(7, true).havoc(data)
	b := newMut(7, true).havoc(data)
	if string(a) != string(b) {
		t.Error("havoc not deterministic under a fixed seed")
	}
}

func TestHavocOnEmptyInput(t *testing.T) {
	m := newMut(3, true)
	out := m.havoc(nil)
	if len(out) == 0 {
		t.Error("empty input produced empty mutant")
	}
}

func TestSpliceProducesBoundedOutput(t *testing.T) {
	m := newMut(4, true)
	a := make([]byte, 100)
	b := make([]byte, 120)
	for i := 0; i < 1000; i++ {
		out := m.splice(a, b)
		if len(out) > m.maxLen {
			t.Fatalf("splice produced %d bytes, cap %d", len(out), m.maxLen)
		}
	}
	// Degenerate operands fall back to havoc.
	if len(m.splice(nil, b)) == 0 {
		t.Error("splice with empty left side produced nothing")
	}
}

func TestDictionaryOpsOnlyInRichProfile(t *testing.T) {
	tok := []byte("MAGIC")
	countTok := func(rich bool) int {
		m := newMut(5, rich)
		m.dict = [][]byte{tok}
		hits := 0
		data := make([]byte, 40)
		for i := 0; i < 4000; i++ {
			out := m.havoc(data)
			for j := 0; j+len(tok) <= len(out); j++ {
				if string(out[j:j+len(tok)]) == string(tok) {
					hits++
					break
				}
			}
		}
		return hits
	}
	richHits := countTok(true)
	aflHits := countTok(false)
	if richHits == 0 {
		t.Error("rich profile never inserted the dictionary token")
	}
	if aflHits > richHits/4 {
		t.Errorf("plain AFL profile used dictionary ops: %d vs rich %d", aflHits, richHits)
	}
}

// TestHavocChangesSomething: quick-check that havoc output differs from
// the input almost always (stacked mutations on non-trivial data).
func TestHavocChangesSomething(t *testing.T) {
	m := newMut(6, true)
	err := quick.Check(func(data []byte) bool {
		if len(data) < 4 {
			return true
		}
		if len(data) > 96 {
			data = data[:96]
		}
		same := 0
		for i := 0; i < 8; i++ {
			out := m.havoc(data)
			if string(out) == string(data) {
				same++
			}
		}
		return same < 8
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestEncodeHelpers(t *testing.T) {
	var buf [8]byte
	if got := encodeWidthTo(&buf, 0x1122, 2, false); got[0] != 0x22 || got[1] != 0x11 {
		t.Errorf("LE encode: %x", got)
	}
	if got := encodeWidthTo(&buf, 0x1122, 2, true); got[0] != 0x11 || got[1] != 0x22 {
		t.Errorf("BE encode: %x", got)
	}
	if minWidth(7) != 1 || minWidth(300) != 2 || minWidth(1<<20) != 4 || minWidth(1<<40) != 8 {
		t.Error("minWidth wrong")
	}
	if !fitsWidth(255, 1) || fitsWidth(256, 1) || !fitsWidth(-128, 1) || fitsWidth(-129, 1) {
		t.Error("fitsWidth(1) wrong")
	}
	if !bytesEq([]byte{1, 2}, []byte{1, 2}) || bytesEq([]byte{1}, []byte{1, 2}) || bytesEq([]byte{1}, []byte{2}) {
		t.Error("bytesEq wrong")
	}
}

// havocBenchProg is a small byte-classifying loop, cheap enough that
// BenchmarkMutatorHavoc's time goes to mutation and the fuzz loop.
const havocBenchProg = `
func classify(c) {
    var v = 0;
    if (c > 192) { v = 3; } else {
        if (c > 128) { v = 2; } else {
            if (c > 64) { v = 1; } else { v = 0; }
        }
    }
    return v;
}
func main(input) {
    var s = 0;
    for (var i = 0; i < len(input); i = i + 1) {
        s = s + classify(input[i]);
        if ((s & 7) == 0) { s = s + 1; }
    }
    return s;
}
`

// BenchmarkMutatorHavoc measures raw mutation throughput.
func BenchmarkMutatorHavoc(b *testing.B) {
	f, err := New(compileT(b, havocBenchProg), Options{Seed: 1, MapSize: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	f.AddSeed([]byte("the quick brown fox"))
	b.ResetTimer()
	f.Fuzz(int64(b.N) + 2000)
}
