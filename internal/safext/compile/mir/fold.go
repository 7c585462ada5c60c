package mir

import (
	"kex/internal/ebpf/isa"
	"kex/internal/safext/lang"
)

// Constant folding and constant/copy propagation.
//
// The pass leans on the single-def property instead of SSA: a vreg with
// exactly one definition in the function holds the same value at every use
// (lowering guarantees defs dominate uses). Copies are propagated only
// through chains of single-def vregs — a copy of a multi-def vreg is a
// snapshot and must not be substituted. Arithmetic and compares fold
// through isa.ALU and isa.Cond, the functions both engines execute, so a
// fold cannot disagree with the engine about what an op computes. What the
// translation validator checks is this pass's rewrites (identities,
// immediate forms, discharged sites); the table itself is pinned by isa's
// spec test and the differential fuzzer's Go reference model. Division and
// modulo by a constant zero are never folded so the emitted check (or the
// engine's defined div-by-zero result) is preserved bit-for-bit.

type foldCtx struct {
	f        *Func
	defCount []int
	defOf    []*Insn // valid only where defCount == 1
}

func newFoldCtx(f *Func) *foldCtx {
	fc := &foldCtx{
		f:        f,
		defCount: make([]int, f.NumVRegs+1),
		defOf:    make([]*Insn, f.NumVRegs+1),
	}
	for _, b := range f.Blocks {
		for i := range b.Insns {
			in := &b.Insns[i]
			if in.Dst != 0 {
				fc.defCount[in.Dst]++
				fc.defOf[in.Dst] = in
			}
		}
	}
	return fc
}

// root follows single-def copy chains; every link (including the result)
// must be single-def for substitution to be sound.
func (fc *foldCtx) root(v VReg) VReg {
	for i := 0; i < 64; i++ { // cycle guard; real chains are short
		if v == 0 || fc.defCount[v] != 1 {
			return v
		}
		d := fc.defOf[v]
		if d.Op != OpCopy || fc.defCount[d.A] != 1 {
			return v
		}
		v = d.A
	}
	return v
}

// constOf reports the constant value of v, if single-def constant.
func (fc *foldCtx) constOf(v VReg) (int64, bool) {
	v = fc.root(v)
	if v != 0 && fc.defCount[v] == 1 && fc.defOf[v].Op == OpConst {
		return fc.defOf[v].Imm, true
	}
	return 0, false
}

// subst rewrites *v to its copy root; reports whether it changed.
func (fc *foldCtx) subst(v *VReg) bool {
	r := fc.root(*v)
	if r != *v {
		*v = r
		return true
	}
	return false
}

func commutative(op uint8) bool {
	switch op {
	case isa.OpAdd, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor:
		return true
	}
	return false
}

// evalBin folds an OpBin over constants. ok is false only for division or
// modulo by zero, which the caller must not fold.
func evalBin(op uint8, a, b uint64) (uint64, bool) {
	if b == 0 && (op == isa.OpDiv || op == isa.OpMod) {
		return 0, false
	}
	if s := a + b; op == isa.OpAdd && mutantActive("fold-overflow") && s < a {
		return ^uint64(0), true
	}
	return isa.ALU(op, a, b, true)
}

// reflexive is a relation's value on equal operands (MIR relations are
// never OpJset, the one jump op that depends on the shared value).
func reflexive(rel uint8) bool { return isa.Cond(rel, false, 0, 0) }

func fitsInt32(v int64) bool { return v == int64(int32(v)) }

// flipSite marks an Emit site as discharged by the optimizer.
func (f *Func) flipSite(idx int) {
	if idx != SiteNone && f.Sites[idx].State == SiteEmit {
		f.Sites[idx].State = SiteFolded
	}
}

// fold runs one propagate+fold sweep; returns the number of rewrites.
func fold(f *Func) int {
	fc := newFoldCtx(f)
	changed := 0
	for _, b := range f.Blocks {
		for i := range b.Insns {
			changed += fc.rewrite(&b.Insns[i])
		}
		changed += fc.rewriteTerm(&b.Term)
	}
	return changed
}

// toConst replaces an instruction with Dst = c, discharging its site.
func (fc *foldCtx) toConst(in *Insn, c int64) {
	fc.f.flipSite(in.Site)
	*in = Insn{Op: OpConst, Dst: in.Dst, Imm: c, Arr: -1, Site: SiteNone, Line: in.Line}
}

// toCopy replaces an instruction with Dst = src, discharging its site.
func (fc *foldCtx) toCopy(in *Insn, src VReg) {
	fc.f.flipSite(in.Site)
	*in = Insn{Op: OpCopy, Dst: in.Dst, A: src, Arr: -1, Site: SiteNone, Line: in.Line}
}

func (fc *foldCtx) rewrite(in *Insn) int {
	n := 0
	switch in.Op {
	case OpCopy:
		if fc.subst(&in.A) {
			n++
		}

	case OpNeg:
		if fc.subst(&in.A) {
			n++
		}
		if c, ok := fc.constOf(in.A); ok {
			fc.toConst(in, int64(-uint64(c)))
			return n + 1
		}

	case OpBin:
		n += fc.rewriteBin(in)

	case OpCmp:
		n += fc.rewriteCmp(in)

	case OpArrLoad, OpArrStore:
		if !in.IdxIsImm {
			if fc.subst(&in.A) {
				n++
			}
			if c, ok := fc.constOf(in.A); ok && (mutantActive("drop-bounds-check") || (c >= 0 && c < fc.f.Arrays[in.Arr])) {
				in.IdxIsImm, in.IdxImm = true, c
				fc.f.flipSite(in.Site)
				n++
			}
			// A constant index out of range keeps the register form: the
			// emitted check must still trap, exactly like the naive build.
		}
		if in.Op == OpArrStore && !in.BIsImm {
			if fc.subst(&in.B) {
				n++
			}
			if c, ok := fc.constOf(in.B); ok && fitsInt32(c) {
				in.BIsImm, in.BImm, in.B = true, c, 0
				n++
			}
		}

	case OpCallCrate, OpCallUser:
		for i := range in.Args {
			a := &in.Args[i]
			if a.IsImm {
				continue
			}
			switch a.Kind {
			case lang.CrateInt:
				if fc.subst(&a.V) {
					n++
				}
				if c, ok := fc.constOf(a.V); ok {
					a.IsImm, a.Imm, a.V = true, c, 0
					n++
				}
			default:
				if a.V != 0 && fc.subst(&a.V) {
					n++
				}
			}
		}
	}
	return n
}

func (fc *foldCtx) rewriteBin(in *Insn) int {
	n := 0
	if fc.subst(&in.A) {
		n++
	}
	if !in.BIsImm && fc.subst(&in.B) {
		n++
	}
	ca, aConst := fc.constOf(in.A)
	var cb int64
	bConst := in.BIsImm
	if bConst {
		cb = in.BImm
	} else {
		cb, bConst = fc.constOf(in.B)
	}

	// Full fold (both operands constant).
	if aConst && bConst {
		if r, ok := evalBin(in.Bin, uint64(ca), uint64(cb)); ok {
			fc.toConst(in, int64(r))
			return n + 1
		}
		// Division/modulo by constant zero: keep the instruction (and its
		// check) so the trap — or the engine's defined result — survives.
		return n
	}

	// Same-register identities: operands are read simultaneously, so equal
	// vregs always hold equal values here.
	if !in.BIsImm && in.A == in.B && in.A != 0 {
		switch in.Bin {
		case isa.OpSub, isa.OpXor:
			fc.toConst(in, 0)
			return n + 1
		case isa.OpAnd, isa.OpOr:
			fc.toCopy(in, in.A)
			return n + 1
		}
	}

	// Commutative normalization: constant on the B side. The operands swap
	// in register form — the immediate-form conversion below decides whether
	// the constant fits the 32-bit immediate encoding.
	if aConst && !bConst && commutative(in.Bin) {
		in.A, in.B = in.B, in.A
		bConst, cb = true, ca
		aConst = false
		n++
	}

	// Identities with a constant B.
	if bConst {
		switch in.Bin {
		case isa.OpAdd, isa.OpSub, isa.OpOr, isa.OpXor:
			if cb == 0 {
				fc.toCopy(in, in.A)
				return n + 1
			}
		case isa.OpMul:
			if cb == 1 {
				fc.toCopy(in, in.A)
				return n + 1
			}
			if cb == 0 {
				fc.toConst(in, 0)
				return n + 1
			}
		case isa.OpAnd:
			if cb == 0 {
				fc.toConst(in, 0)
				return n + 1
			}
			if cb == -1 {
				fc.toCopy(in, in.A)
				return n + 1
			}
		case isa.OpDiv:
			if cb == 1 {
				fc.f.flipSite(in.Site)
				fc.toCopy(in, in.A)
				return n + 1
			}
		case isa.OpMod:
			if cb == 1 {
				fc.f.flipSite(in.Site)
				fc.toConst(in, 0)
				return n + 1
			}
		case isa.OpLsh, isa.OpRsh:
			if uint64(cb)&63 == 0 {
				fc.f.flipSite(in.Site)
				fc.toCopy(in, in.A)
				return n + 1
			}
		}
	}

	// Immediate-form conversion. Shift amounts are pre-masked (the ALU
	// masks identically, so this is a pure renaming) and discharge the
	// mask site; a constant non-zero divisor discharges the div check even
	// when the immediate doesn't fit the int32 form.
	if bConst && !in.BIsImm {
		switch in.Bin {
		case isa.OpLsh, isa.OpRsh:
			mask := uint64(63)
			if mutantActive("fold-shift-mask-wrong") {
				mask = 31
			}
			in.BIsImm, in.BImm, in.B = true, int64(uint64(cb)&mask), 0
			fc.f.flipSite(in.Site)
			n++
		case isa.OpDiv, isa.OpMod:
			if cb != 0 {
				fc.f.flipSite(in.Site)
				if fitsInt32(cb) {
					in.BIsImm, in.BImm, in.B = true, cb, 0
				}
				n++
			}
		default:
			if fitsInt32(cb) {
				in.BIsImm, in.BImm, in.B = true, cb, 0
				n++
			}
		}
	}
	return n
}

func (fc *foldCtx) rewriteCmp(in *Insn) int {
	n := 0
	if fc.subst(&in.A) {
		n++
	}
	if !in.BIsImm && fc.subst(&in.B) {
		n++
	}
	ca, aConst := fc.constOf(in.A)
	var cb int64
	bConst := in.BIsImm
	if bConst {
		cb = in.BImm
	} else {
		cb, bConst = fc.constOf(in.B)
	}
	if aConst && bConst {
		r := int64(0)
		if isa.Cond(in.Bin, false, uint64(ca), uint64(cb)) {
			r = 1
		}
		fc.toConst(in, r)
		return n + 1
	}
	if !in.BIsImm && in.A == in.B && in.A != 0 {
		r := int64(0)
		if reflexive(in.Bin) {
			r = 1
		}
		fc.toConst(in, r)
		return n + 1
	}
	if aConst && !bConst {
		in.Bin = isa.SwapCond(in.Bin)
		in.A, in.B = in.B, in.A
		bConst, cb = true, ca
		n++
	}
	if bConst && !in.BIsImm && fitsInt32(cb) {
		in.BIsImm, in.BImm, in.B = true, cb, 0
		if mutantActive("cmp-sign-swap") {
			in.Bin = signSwapped(in.Bin)
		}
		n++
	}
	return n
}

func (fc *foldCtx) rewriteTerm(t *Terminator) int {
	n := 0
	switch t.Kind {
	case TermCond:
		if fc.subst(&t.A) {
			n++
		}
		if !t.BIsImm && fc.subst(&t.B) {
			n++
		}
		ca, aConst := fc.constOf(t.A)
		var cb int64
		bConst := t.BIsImm
		if bConst {
			cb = t.BImm
		} else {
			cb, bConst = fc.constOf(t.B)
		}
		if aConst && bConst {
			to := t.Else
			if isa.Cond(t.Rel, false, uint64(ca), uint64(cb)) {
				to = t.To
			}
			*t = Terminator{Kind: TermJmp, To: to, Line: t.Line}
			return n + 1
		}
		if !t.BIsImm && t.A == t.B && t.A != 0 {
			to := t.Else
			if reflexive(t.Rel) {
				to = t.To
			}
			*t = Terminator{Kind: TermJmp, To: to, Line: t.Line}
			return n + 1
		}
		if aConst && !bConst {
			t.Rel = isa.SwapCond(t.Rel)
			t.A, t.B = t.B, t.A
			bConst, cb = true, ca
			n++
		}
		if bConst && !t.BIsImm && fitsInt32(cb) {
			t.BIsImm, t.BImm, t.B = true, cb, 0
			if mutantActive("cmp-sign-swap") {
				t.Rel = signSwapped(t.Rel)
			}
			n++
		}
	case TermRet:
		if !t.RetIsImm {
			if fc.subst(&t.Ret) {
				n++
			}
			if c, ok := fc.constOf(t.Ret); ok {
				t.RetIsImm, t.RetImm, t.Ret = true, c, 0
				n++
			}
		}
	}
	return n
}
