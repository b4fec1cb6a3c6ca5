package interproc

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cfg"
)

// Lint runs palint's interprocedural check over prog:
//
//   - unreachable-func: a function no call chain from the entry
//     ("main", or function 0 when there is none) ever reaches.
//
// Each finding holds on every execution.
func Lint(prog *cfg.Program) []analysis.Finding {
	entry := 0
	if i, ok := prog.ByName["main"]; ok {
		entry = i
	}
	reach := NewCallGraph(prog).ReachableFrom(entry)
	var out []analysis.Finding
	for fi, f := range prog.Funcs {
		if reach[fi] {
			continue
		}
		out = append(out, analysis.Finding{
			Check: "unreachable-func",
			Func:  f.Name,
			Pos:   f.Pos,
			Msg:   fmt.Sprintf("function %q is never called from the entry point", f.Name),
		})
	}
	analysis.SortFindings(out)
	return out
}
