package bytecode_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// countTracer counts function entries and CFG edge traversals.
type countTracer struct {
	enters []int64
	edges  [][]int64
}

func newCountTracer(prog *cfg.Program) *countTracer {
	t := &countTracer{enters: make([]int64, len(prog.Funcs)), edges: make([][]int64, len(prog.Funcs))}
	for i, f := range prog.Funcs {
		t.edges[i] = make([]int64, len(f.Edges))
	}
	return t
}

func (t *countTracer) Begin()                     {}
func (t *countTracer) EnterFunc(f *cfg.Func)      { t.enters[f.ID]++ }
func (t *countTracer) Edge(f *cfg.Func, edge int) { t.edges[f.ID][edge]++ }
func (t *countTracer) Ret(*cfg.Func, int)         {}

func (t *countTracer) reset() {
	clear(t.enters)
	for _, e := range t.edges {
		clear(e)
	}
}

func (t *countTracer) addTo(sum *countTracer) {
	for i, n := range t.enters {
		sum.enters[i] += n
	}
	for i, es := range t.edges {
		for j, n := range es {
			sum.edges[i][j] += n
		}
	}
}

// TestDispatchHistogram is the dispatch histogram fusion rules are
// picked from. It replays each subject's differential corpus on the
// reference interpreter, counting function entries and edge
// traversals, and weights the bytecode's group heads by them (runs
// that crash or time out are left out, as their last block stops
// early), so the figures are exact counts no host noise moves. It
// checks that the weighted blocks charge exactly the runs' steps, and
// with -v prints per subject × feedback the dispatches per step and
// the opcode pairs most often fetched back to back within a block:
//
//	go test ./internal/bytecode -run TestDispatchHistogram -v
func TestDispatchHistogram(t *testing.T) {
	for _, sub := range subjects.All() {
		prog := sub.MustProgram()
		inputs := subjectInputs(sub, rand.New(rand.NewSource(42)), 40)
		for _, fb := range []instrument.Feedback{instrument.FeedbackEdge, instrument.FeedbackPath} {
			cp, ok := instrument.CompiledFor(fb, prog, instrument.Config{})
			if !ok {
				t.Fatalf("no %v lowering", fb)
			}
			run, sum := newCountTracer(prog), newCountTracer(prog)
			var runs, steps int64
			for _, in := range inputs {
				run.reset()
				r := vm.Run(prog, "main", in, run, vm.DefaultLimits())
				if r.Status != vm.StatusOK {
					continue
				}
				run.addTo(sum)
				runs++
				steps += r.Steps
			}
			st, err := bytecode.Dispatches(cp, prog.ByName["main"], runs, sum.enters, sum.edges)
			if err != nil {
				t.Fatalf("%s/%v: %v", sub.Name, fb, err)
			}
			if st.Steps != steps {
				t.Fatalf("%s/%v: weighted blocks charge %d steps, the runs %d", sub.Name, fb, st.Steps, steps)
			}
			t.Logf("%-10s %-8v %.3f dispatches/step (%d runs, %d steps); top pairs: %s",
				sub.Name, fb, float64(st.Dispatches)/float64(steps), runs, steps, topPairs(st, 6))
		}
	}
}

// topPairs formats the n most frequent pairs with their share of all
// dispatches.
func topPairs(st bytecode.DispatchStats, n int) string {
	type count struct {
		pair [2]uint8
		n    int64
	}
	var cs []count
	for p, c := range st.Pairs {
		cs = append(cs, count{p, c})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].n != cs[j].n {
			return cs[i].n > cs[j].n
		}
		return cs[i].pair[0] < cs[j].pair[0] || cs[i].pair[0] == cs[j].pair[0] && cs[i].pair[1] < cs[j].pair[1]
	})
	var b strings.Builder
	for i := 0; i < n && i < len(cs); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s>%s %.1f%%", bytecode.OpName(cs[i].pair[0]), bytecode.OpName(cs[i].pair[1]),
			100*float64(cs[i].n)/float64(st.Dispatches))
	}
	return b.String()
}
