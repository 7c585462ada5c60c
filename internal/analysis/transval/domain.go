package transval

import (
	"math"

	"kex/internal/ebpf/isa"
	"kex/internal/safext/analyze"
	"kex/internal/safext/compile/mir"
)

// Abstract pre-pass over the naive MIR, reusing the interval+known-bits
// domain from internal/safext/analyze. The pass accumulates a per-vreg
// abstraction across repeated forward sweeps, joining at first and
// switching to the domain's widening operator once loop-carried vregs
// start growing — the loop-header treatment that makes the result
// converge. The proven interval endpoints become palette entries: they are
// exactly the loop bounds and derived limits the optimized code's folded
// compares sit on, so probing at endpoint±1 exercises the first/last
// iteration and the exit edge of every loop the domain can bound.

// harvestPasses bounds the sweep count; widening kicks in at widenAfter.
const (
	harvestPasses = 6
	widenAfter    = 3
)

func harvest(f *mir.Func) []int64 {
	vals := make([]analyze.Val, f.NumVRegs+1)
	for i := range vals {
		vals[i] = analyze.Bottom()
	}
	lift := func(v mir.VReg) analyze.Val {
		if v == 0 || vals[v].IsBottom() {
			return analyze.Top()
		}
		return vals[v]
	}

	for pass := 0; pass < harvestPasses; pass++ {
		changed := false
		for _, b := range f.Blocks {
			for i := range b.Insns {
				in := &b.Insns[i]
				if in.Dst == 0 {
					continue
				}
				nv := transfer(in, lift)
				old := vals[in.Dst]
				var merged analyze.Val
				if old.IsBottom() {
					merged = nv
				} else if pass >= widenAfter {
					merged = analyze.Widen(old, analyze.Join(old, nv))
				} else {
					merged = analyze.Join(old, nv)
				}
				if merged != old {
					vals[in.Dst] = merged
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	var out []int64
	seen := map[int64]bool{}
	for v := 1; v <= f.NumVRegs; v++ {
		val := vals[v]
		if val.IsBottom() {
			continue
		}
		if val.Min != math.MinInt64 && !seen[val.Min] {
			seen[val.Min] = true
			out = append(out, val.Min)
		}
		if val.Max != math.MaxInt64 && !seen[val.Max] {
			seen[val.Max] = true
			out = append(out, val.Max)
		}
	}
	return out
}

func transfer(in *mir.Insn, lift func(mir.VReg) analyze.Val) analyze.Val {
	switch in.Op {
	case mir.OpConst:
		return analyze.Const(in.Imm)
	case mir.OpCopy:
		return lift(in.A)
	case mir.OpNeg:
		return lift(in.A).Neg()
	case mir.OpCmp:
		return analyze.Range(0, 1)
	case mir.OpArrLoad:
		return analyze.Range(0, 255)
	case mir.OpBin:
		a := lift(in.A)
		var b analyze.Val
		if in.BIsImm {
			b = analyze.Const(in.BImm)
		} else {
			b = lift(in.B)
		}
		switch in.Bin {
		case isa.OpAdd:
			return a.Add(b)
		case isa.OpSub:
			return a.Sub(b)
		case isa.OpMul:
			return a.Mul(b)
		case isa.OpDiv:
			return a.Div(b)
		case isa.OpMod:
			return a.Mod(b)
		case isa.OpAnd:
			return a.And(b)
		case isa.OpOr:
			return a.Or(b)
		case isa.OpXor:
			return a.Xor(b)
		case isa.OpLsh:
			return a.Shl(b)
		case isa.OpRsh:
			return a.Shr(b)
		}
	}
	return analyze.Top()
}
