package analysis

import "repro/internal/cfg"

// InstrUses appends the slots read by in to buf and returns it.
func InstrUses(in *cfg.Instr, buf []int) []int {
	switch in.Op {
	case cfg.OpConst, cfg.OpStr:
	case cfg.OpMove, cfg.OpUn:
		buf = append(buf, in.A)
	case cfg.OpBin, cfg.OpLoad:
		buf = append(buf, in.A, in.B)
	case cfg.OpStore:
		buf = append(buf, in.A, in.B, in.C)
	case cfg.OpCall, cfg.OpBuiltin:
		buf = append(buf, in.Args...)
	}
	return buf
}

// InstrDef returns the slot written by in, or -1 (stores write the
// heap, not a slot; nops write nothing).
func InstrDef(in *cfg.Instr) int {
	if in.Op == cfg.OpStore || in.Op == cfg.OpNop {
		return -1
	}
	return in.Dst
}

// TermUses appends the slots read by t to buf and returns it.
func TermUses(t *cfg.Term, buf []int) []int {
	switch t.Kind {
	case cfg.TermBr:
		buf = append(buf, t.Cond)
	case cfg.TermRet:
		if t.Val >= 0 {
			buf = append(buf, t.Val)
		}
	}
	return buf
}

// definitelyAssigned computes, per block, the set of slots assigned on
// every path from the entry to the block's start: a forward must
// problem (intersection join) whose transfer adds the block's
// definitions. Parameters are assigned at entry. Blocks unreachable
// from the entry keep the full set, the sound answer for a must
// problem.
func definitelyAssigned(f *cfg.Func) (in []BitSet) {
	n := len(f.Blocks)
	in = make([]BitSet, n)
	out := make([]BitSet, n)
	gen := make([]BitSet, n)
	for b := 0; b < n; b++ {
		in[b] = NewBitSet(f.FrameSize)
		out[b] = NewBitSet(f.FrameSize)
		in[b].SetFirstN(f.FrameSize)
		out[b].SetFirstN(f.FrameSize)
		gen[b] = NewBitSet(f.FrameSize)
		for i := range f.Blocks[b].Instrs {
			if d := InstrDef(&f.Blocks[b].Instrs[i]); d >= 0 {
				gen[b].Set(d)
			}
		}
	}
	preds := Preds(f)
	order := ReversePostorder(f)
	tmp := NewBitSet(f.FrameSize)
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			j := in[b]
			if b == 0 {
				clear(j)
				j.SetFirstN(f.NParams)
			} else {
				j.SetFirstN(f.FrameSize)
			}
			for _, o := range preds[b] {
				j.IntersectWith(out[o])
			}
			tmp.CopyFrom(j)
			tmp.UnionWith(gen[b])
			if !tmp.Equal(out[b]) {
				out[b].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return in
}
