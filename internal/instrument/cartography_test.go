package instrument_test

import (
	"testing"

	"repro/internal/balllarus"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// twoBranches has four acyclic paths through main, selected by the
// first input byte.
const twoBranches = `
func main(input) {
    if (len(input) < 1) { return 0; }
    var x = input[0];
    var r = 0;
    if (x > 100) { r = 1; }
    if (x < 50) { r = r + 2; }
    return r;
}
`

// TestPathCellIndexMatchesTracer: the cell predictor covmap inverts
// path cells with must agree with the live tracer's mixing: every cell
// concrete executions write is the predicted cell of some path ID of
// main.
func TestPathCellIndexMatchesTracer(t *testing.T) {
	const mapSize = 1 << 12
	p := compile(t, twoBranches)
	mi := p.ByName["main"]
	enc, err := balllarus.Encode(p.Funcs[mi])
	if err != nil {
		t.Fatalf("main not numberable: %v", err)
	}
	predicted := make(map[uint32]bool)
	for id := uint64(0); id < enc.NumPaths; id++ {
		predicted[instrument.PathCellIndex(mi, id, mapSize)] = true
	}
	m := coverage.NewMap(mapSize)
	tr := instrument.NewPathTracer(p, m)
	for b := 0; b < 256; b += 3 {
		m.Reset()
		vm.Run(p, "main", []byte{byte(b)}, tr, vm.DefaultLimits())
		m.ClassifySparse()
		for _, idx := range m.Indices() {
			if !predicted[idx] {
				t.Fatalf("tracer wrote cell %d outside the predicted set", idx)
			}
		}
	}
}
