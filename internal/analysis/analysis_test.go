package analysis

import (
	"testing"

	"repro/internal/cfg"
)

// diamond builds the classic shape by compiling a source whose CFG is
// entry → (then | else) → join.
func diamond(t *testing.T) *cfg.Func {
	t.Helper()
	prog, err := cfg.Compile(`func main(input) {
		var x = 0;
		if (len(input) > 0) { x = 1; } else { x = 2; }
		return x;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Func("main")
}

func loopFunc(t *testing.T) *cfg.Func {
	t.Helper()
	prog, err := cfg.Compile(`func main(input) {
		var s = 0;
		for (var i = 0; i < 10; i = i + 1) { s = s + i; }
		return s;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Func("main")
}

func TestReversePostorderCoversReachable(t *testing.T) {
	for _, f := range []*cfg.Func{diamond(t), loopFunc(t)} {
		rpo := ReversePostorder(f)
		if len(rpo) != len(f.Blocks) {
			t.Fatalf("%s: rpo has %d blocks, func has %d", f.Name, len(rpo), len(f.Blocks))
		}
		if rpo[0] != 0 {
			t.Fatalf("%s: rpo does not start at entry: %v", f.Name, rpo)
		}
		seen := map[int]bool{}
		for _, b := range rpo {
			if seen[b] {
				t.Fatalf("%s: duplicate block b%d in rpo", f.Name, b)
			}
			seen[b] = true
		}
	}
}
