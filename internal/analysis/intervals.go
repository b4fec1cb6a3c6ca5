package analysis

import (
	"math"

	"repro/internal/cfg"
	"repro/internal/lang"
)

// Interval is an inclusive integer range. Lo > Hi encodes bottom (no
// value); the full range is top (nothing known).
type Interval struct{ Lo, Hi int64 }

var (
	topI    = Interval{math.MinInt64, math.MaxInt64}
	bottomI = Interval{1, 0}
)

// IsBottom reports the empty interval.
func (iv Interval) IsBottom() bool { return iv.Lo > iv.Hi }

// Singleton reports whether iv holds exactly one value.
func (iv Interval) Singleton() bool { return iv.Lo == iv.Hi }

// Contains reports whether v lies in iv.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// hull is the smallest interval covering both operands.
func hull(a, b Interval) Interval {
	if a.IsBottom() {
		return b
	}
	if b.IsBottom() {
		return a
	}
	return Interval{min64(a.Lo, b.Lo), max64(a.Hi, b.Hi)}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// addChecked returns a+b and whether it overflowed.
func addChecked(a, b int64) (int64, bool) {
	s := a + b
	return s, (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0)
}

func addI(a, b Interval) Interval {
	if a.IsBottom() || b.IsBottom() {
		return bottomI
	}
	lo, of1 := addChecked(a.Lo, b.Lo)
	hi, of2 := addChecked(a.Hi, b.Hi)
	if of1 || of2 {
		return topI
	}
	return Interval{lo, hi}
}

func negI(a Interval) Interval {
	if a.IsBottom() {
		return bottomI
	}
	if a.Lo == math.MinInt64 || a.Hi == math.MinInt64 {
		return topI
	}
	return Interval{-a.Hi, -a.Lo}
}

func subI(a, b Interval) Interval { return addI(a, negI(b)) }

// mulI widens to top unless both operands fit in 32 bits, where the
// four corner products cannot overflow.
func mulI(a, b Interval) Interval {
	if a.IsBottom() || b.IsBottom() {
		return bottomI
	}
	const lim = 1 << 31
	if a.Lo < -lim || a.Hi > lim || b.Lo < -lim || b.Hi > lim {
		return topI
	}
	p := [4]int64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi}
	out := Interval{p[0], p[0]}
	for _, v := range p[1:] {
		out.Lo = min64(out.Lo, v)
		out.Hi = max64(out.Hi, v)
	}
	return out
}

// cmpI evaluates a comparison over intervals into {0,1} (or a sharper
// singleton when the ranges decide it).
func cmpI(op lang.Kind, a, b Interval) Interval {
	if a.IsBottom() || b.IsBottom() {
		return bottomI
	}
	boolI := func(truth, decided bool) Interval {
		if !decided {
			return Interval{0, 1}
		}
		if truth {
			return Interval{1, 1}
		}
		return Interval{0, 0}
	}
	switch op {
	case lang.EQ:
		if a.Singleton() && b.Singleton() {
			return boolI(a.Lo == b.Lo, true)
		}
		return boolI(false, a.Hi < b.Lo || b.Hi < a.Lo)
	case lang.NE:
		if a.Singleton() && b.Singleton() {
			return boolI(a.Lo != b.Lo, true)
		}
		return boolI(true, a.Hi < b.Lo || b.Hi < a.Lo)
	case lang.LT:
		return boolI(a.Hi < b.Lo, a.Hi < b.Lo || a.Lo >= b.Hi)
	case lang.LE:
		return boolI(a.Hi <= b.Lo, a.Hi <= b.Lo || a.Lo > b.Hi)
	case lang.GT:
		return boolI(a.Lo > b.Hi, a.Lo > b.Hi || a.Hi <= b.Lo)
	case lang.GE:
		return boolI(a.Lo >= b.Hi, a.Lo >= b.Hi || a.Hi < b.Lo)
	}
	return Interval{0, 1}
}

// Env is the abstract state at one program point: a value interval per
// slot plus, for slots holding array handles, the array's length
// interval (top when unknown or not an array).
type Env struct {
	Val []Interval
	Len []Interval
}

func newEnv(frame int) Env {
	e := Env{Val: make([]Interval, frame), Len: make([]Interval, frame)}
	for i := range e.Val {
		e.Val[i] = topI
		e.Len[i] = topI
	}
	return e
}

func (e *Env) copyFrom(o *Env) {
	copy(e.Val, o.Val)
	copy(e.Len, o.Len)
}

// joinWith hulls o into e, reporting whether e changed.
func (e *Env) joinWith(o *Env) bool {
	changed := false
	for i := range e.Val {
		if h := hull(e.Val[i], o.Val[i]); h != e.Val[i] {
			e.Val[i] = h
			changed = true
		}
		if h := hull(e.Len[i], o.Len[i]); h != e.Len[i] {
			e.Len[i] = h
			changed = true
		}
	}
	return changed
}

// widenFrom widens e's bounds that moved since prev to ±∞, forcing
// termination on loops that grow an interval every iteration.
func (e *Env) widenFrom(prev *Env) {
	w := func(cur, old Interval) Interval {
		if cur.IsBottom() || old.IsBottom() {
			return cur
		}
		if cur.Lo < old.Lo {
			cur.Lo = math.MinInt64
		}
		if cur.Hi > old.Hi {
			cur.Hi = math.MaxInt64
		}
		return cur
	}
	for i := range e.Val {
		e.Val[i] = w(e.Val[i], prev.Val[i])
		e.Len[i] = w(e.Len[i], prev.Len[i])
	}
}

// Intervals is the result of the per-function interval/constant
// propagation: entry-state per block, interval-level reachability, and
// per-edge feasibility. It is path-insensitive except that edges whose
// branch condition is a decided constant are pruned, which is what lets
// the lint detect interval-level unreachable code behind always-false
// branches.
type Intervals struct {
	Fn *cfg.Func
	// In is the abstract state at each block's entry (meaningful only
	// for Reached blocks).
	In []Env
	// Reached marks blocks the analysis could not rule out.
	Reached []bool
	// EdgeFeasible marks CFG edges the analysis could not rule out.
	EdgeFeasible []bool
}

// IntervalsOf runs the interval propagation over f.
func IntervalsOf(f *cfg.Func) *Intervals {
	n := len(f.Blocks)
	ii := &Intervals{
		Fn:           f,
		In:           make([]Env, n),
		Reached:      make([]bool, n),
		EdgeFeasible: make([]bool, len(f.Edges)),
	}
	for b := 0; b < n; b++ {
		ii.In[b] = newEnv(f.FrameSize)
	}
	ii.Reached[0] = true
	// Parameters: unknown values; the input parameter of main holds an
	// array of unknown non-negative length. Length top is [min,max];
	// refine to non-negative for readability of results.
	for s := 0; s < f.NParams; s++ {
		ii.In[0].Len[s] = Interval{0, math.MaxInt64}
	}

	visits := make([]int, n)
	cur := newEnv(f.FrameSize)
	const widenAfter = 8
	for changed := true; changed; {
		changed = false
		for _, b := range ReversePostorder(f) {
			if !ii.Reached[b] {
				continue
			}
			cur.copyFrom(&ii.In[b])
			stopped := false
			blk := &f.Blocks[b]
			for i := range blk.Instrs {
				if ii.stepInstr(&cur, &blk.Instrs[i]) != "" {
					stopped = true
					break
				}
			}
			if stopped {
				continue // guaranteed fault: successors unreachable via b
			}
			then, els := true, true
			if blk.Term.Kind == cfg.TermBr {
				cond := cur.Val[blk.Term.Cond]
				then = cond.Lo != 0 || cond.Hi != 0 // can be nonzero
				els = cond.Contains(0)
			}
			flow := func(e int, feasible bool) {
				if e < 0 || !feasible {
					return
				}
				ii.EdgeFeasible[e] = true
				to := f.Edges[e].To
				if !ii.Reached[to] {
					ii.Reached[to] = true
					ii.In[to].copyFrom(&cur)
					visits[to]++
					changed = true
					return
				}
				prev := newEnv(f.FrameSize)
				prev.copyFrom(&ii.In[to])
				if ii.In[to].joinWith(&cur) {
					visits[to]++
					if visits[to] > widenAfter {
						ii.In[to].widenFrom(&prev)
					}
					changed = true
				}
			}
			flow(blk.EdgeThen, then)
			flow(blk.EdgeElse, els)
		}
	}
	return ii
}

// stepInstr applies in's transfer function to env. A non-empty return
// names a fault the instruction is guaranteed to raise on every
// execution reaching it (so nothing after it in the block runs).
func (ii *Intervals) stepInstr(env *Env, in *cfg.Instr) (fault string) {
	setVal := func(s int, v Interval) {
		env.Val[s] = v
		env.Len[s] = topI
	}
	switch in.Op {
	case cfg.OpConst:
		setVal(in.Dst, Interval{in.Imm, in.Imm})
	case cfg.OpStr:
		env.Val[in.Dst] = topI
		env.Len[in.Dst] = Interval{int64(len(in.Str)), int64(len(in.Str))}
	case cfg.OpMove:
		env.Val[in.Dst] = env.Val[in.A]
		env.Len[in.Dst] = env.Len[in.A]
	case cfg.OpBin:
		a, b := env.Val[in.A], env.Val[in.B]
		var v Interval
		switch in.Sub {
		case lang.PLUS:
			v = addI(a, b)
		case lang.MINUS:
			v = subI(a, b)
		case lang.STAR:
			v = mulI(a, b)
		case lang.SLASH, lang.PCT:
			if b == (Interval{0, 0}) {
				return "division or modulo by zero" // on every execution
			}
			if a.Singleton() && b.Singleton() && b.Lo != 0 && !(a.Lo == math.MinInt64 && b.Lo == -1) {
				if in.Sub == lang.SLASH {
					v = Interval{a.Lo / b.Lo, a.Lo / b.Lo}
				} else {
					v = Interval{a.Lo % b.Lo, a.Lo % b.Lo}
				}
			} else {
				v = topI
			}
		case lang.EQ, lang.NE, lang.LT, lang.LE, lang.GT, lang.GE:
			v = cmpI(in.Sub, a, b)
		case lang.SHL, lang.SHR, lang.AMP, lang.PIPE, lang.CARET:
			if a.Singleton() && b.Singleton() {
				var r int64
				switch in.Sub {
				case lang.SHL:
					r = a.Lo << (uint64(b.Lo) & 63)
				case lang.SHR:
					r = a.Lo >> (uint64(b.Lo) & 63)
				case lang.AMP:
					r = a.Lo & b.Lo
				case lang.PIPE:
					r = a.Lo | b.Lo
				case lang.CARET:
					r = a.Lo ^ b.Lo
				}
				v = Interval{r, r}
			} else {
				v = topI
			}
		default:
			v = topI
		}
		setVal(in.Dst, v)
	case cfg.OpUn:
		a := env.Val[in.A]
		switch in.Sub {
		case lang.MINUS:
			setVal(in.Dst, negI(a))
		case lang.NOT:
			switch {
			case a == (Interval{0, 0}):
				setVal(in.Dst, Interval{1, 1})
			case !a.Contains(0):
				setVal(in.Dst, Interval{0, 0})
			default:
				setVal(in.Dst, Interval{0, 1})
			}
		default:
			setVal(in.Dst, topI)
		}
	case cfg.OpLoad:
		if ii.guaranteedOOB(env, in.A, in.B) {
			return "out-of-bounds load"
		}
		setVal(in.Dst, topI)
	case cfg.OpStore:
		if ii.guaranteedOOB(env, in.A, in.B) {
			return "out-of-bounds store"
		}
	case cfg.OpCall:
		setVal(in.Dst, topI)
	case cfg.OpBuiltin:
		arg := func(i int) Interval {
			if i < len(in.Args) {
				return env.Val[in.Args[i]]
			}
			return topI
		}
		argLen := func(i int) Interval {
			if i < len(in.Args) {
				return env.Len[in.Args[i]]
			}
			return topI
		}
		switch in.Callee {
		case cfg.BAbort:
			return "abort"
		case cfg.BAssert:
			if arg(0) == (Interval{0, 0}) {
				return "assert of a provably-zero value"
			}
			setVal(in.Dst, Interval{0, 0})
		case cfg.BLen:
			l := argLen(0)
			setVal(in.Dst, Interval{max64(l.Lo, 0), max64(l.Hi, 0)})
		case cfg.BAlloc:
			sz := arg(0)
			if !sz.IsBottom() && sz.Hi < 0 {
				return "allocation with provably negative size"
			}
			env.Val[in.Dst] = topI
			env.Len[in.Dst] = Interval{max64(sz.Lo, 0), max64(sz.Hi, 0)}
		case cfg.BAbs:
			a := arg(0)
			switch {
			case a.IsBottom() || a.Lo == math.MinInt64:
				setVal(in.Dst, topI)
			case a.Lo >= 0:
				setVal(in.Dst, a)
			case a.Hi <= 0:
				setVal(in.Dst, negI(a))
			default:
				setVal(in.Dst, Interval{0, max64(-a.Lo, a.Hi)})
			}
		case cfg.BMin:
			a, b := arg(0), arg(1)
			setVal(in.Dst, Interval{min64(a.Lo, b.Lo), min64(a.Hi, b.Hi)})
		case cfg.BMax:
			a, b := arg(0), arg(1)
			setVal(in.Dst, Interval{max64(a.Lo, b.Lo), max64(a.Hi, b.Hi)})
		case cfg.BOut:
			setVal(in.Dst, Interval{0, 0})
		default:
			setVal(in.Dst, topI)
		}
	}
	return ""
}

// guaranteedOOB reports whether indexing slot arr with slot idx is out
// of bounds on every execution reaching this point: the index is
// provably negative, or provably at/above every possible length of the
// array.
func (ii *Intervals) guaranteedOOB(env *Env, arr, idx int) bool {
	iv := env.Val[idx]
	if iv.IsBottom() {
		return false
	}
	if iv.Hi < 0 {
		return true
	}
	l := env.Len[arr]
	return l.Hi < math.MaxInt64 && iv.Lo >= l.Hi
}
