package transval

import (
	"fmt"

	"kex/internal/ebpf/isa"
	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
)

// The reference machine. Both sides of a build execute here, over one
// deterministic model of the engine: arithmetic and compares through
// isa.ALU and isa.Cond (the table the engines execute and the optimizer
// folds with), the trap of an emitted div check, byte arrays with
// trap-or-poison bounds semantics, stateful keyed maps, and
// uninterpreted-but-deterministic crate calls. Sharing the table with the
// optimizer costs the validator no independence: what it checks is the
// optimizer's rewrites (identities, immediate forms, discharged sites,
// register allocation), and both sides run in the *same* model, so only
// internal consistency matters. The table itself is pinned by isa's spec
// test and by the differential fuzzer's Go reference model.

const (
	stopRet = iota
	stopTrap
	stopFuel
	stopErr
)

type outcome struct {
	kind    int
	ret     uint64
	trap    int64
	effects []effect
	msg     string
}

func (o *outcome) verdict() string {
	switch o.kind {
	case stopRet:
		return fmt.Sprintf("ret %d", int64(o.ret))
	case stopTrap:
		return fmt.Sprintf("trap %d", o.trap)
	case stopFuel:
		return "fuel exhausted"
	}
	return "model error: " + o.msg
}

type stop struct {
	kind int
	trap int64
	msg  string
}

// maxUserDepth bounds OpCallUser recursion in the model (the language
// forbids recursion, so hitting this means broken IR — a model error).
const maxUserDepth = 64

type machine struct {
	funcs map[string]*compile.MIRFuncArtifact
	opt   bool // execute optimized IR through its register allocation
	w     *world
	depth int
	cover map[mir.BlockID]bool // naive-side block coverage for the top function
}

// runSide executes one side of a function over one input vector. cover,
// when non-nil, accumulates visited block IDs of the top-level function.
func runSide(funcs map[string]*compile.MIRFuncArtifact, fa *compile.MIRFuncArtifact,
	opt bool, args []uint64, seed uint64, pal []uint64, fuel int, cover map[mir.BlockID]bool) *outcome {
	m := &machine{
		funcs: funcs,
		opt:   opt,
		w:     newWorld(seed, pal, fuel),
		cover: cover,
	}
	m.w.args = args
	ret, st := m.call(fa, args, true)
	out := &outcome{effects: m.w.effects}
	if st == nil {
		out.kind = stopRet
		out.ret = ret
		return out
	}
	out.kind = st.kind
	out.trap = st.trap
	out.msg = st.msg
	return out
}

// frame holds one activation's value storage. The naive side is a flat
// vreg file; the optimized side resolves every vreg through the register
// allocation, so two vregs sharing a callee-saved register share storage —
// exactly the aliasing the emitted bytecode has.
type frame struct {
	f     *mir.Func
	al    *mir.Alloc
	vregs []uint64
	rf    [mir.NumAllocRegs]uint64
	spill []uint64
	arrs  [][]byte
}

func (fr *frame) read(v mir.VReg) (uint64, bool) {
	if fr.al == nil {
		return fr.vregs[v], true
	}
	switch r := fr.al.Reg[v]; {
	case r >= 0:
		return fr.rf[r], true
	case r == mir.LocSpill:
		return fr.spill[fr.al.SpillSlot[v]], true
	}
	return 0, false
}

func (fr *frame) write(v mir.VReg, x uint64) {
	if v == 0 {
		return
	}
	if fr.al == nil {
		fr.vregs[v] = x
		return
	}
	switch r := fr.al.Reg[v]; {
	case r >= 0:
		fr.rf[r] = x
	case r == mir.LocSpill:
		fr.spill[fr.al.SpillSlot[v]] = x
	}
	// LocUnused writes are discarded, like a dead def in the emitted code.
}

func emitSite(f *mir.Func, idx int) bool {
	return idx != mir.SiteNone && f.Sites[idx].State == mir.SiteEmit
}

func (m *machine) call(fa *compile.MIRFuncArtifact, args []uint64, top bool) (uint64, *stop) {
	if m.depth >= maxUserDepth {
		return 0, &stop{kind: stopErr, msg: "user-call depth limit exceeded"}
	}
	m.depth++
	defer func() { m.depth-- }()

	f := fa.Naive
	fr := &frame{f: f}
	if m.opt {
		f = fa.Opt
		fr.f = f
		fr.al = fa.Alloc
		fr.spill = make([]uint64, fa.Alloc.NumSpills)
	} else {
		fr.vregs = make([]uint64, f.NumVRegs+1)
	}
	fr.arrs = make([][]byte, len(f.Arrays))
	for i, n := range f.Arrays {
		fr.arrs[i] = make([]byte, n)
	}
	if len(f.Blocks) == 0 {
		return 0, &stop{kind: stopErr, msg: "function has no blocks"}
	}

	cur := f.Blocks[0]
	for {
		if top && !m.opt && m.cover != nil {
			m.cover[cur.ID] = true
		}
		for i := range cur.Insns {
			if st := m.step(fr, &cur.Insns[i]); st != nil {
				return 0, st
			}
		}
		m.w.fuel--
		if m.w.fuel < 0 {
			return 0, &stop{kind: stopFuel}
		}
		t := &cur.Term
		switch t.Kind {
		case mir.TermJmp:
			next := f.BlockByID(t.To)
			if next == nil {
				return 0, &stop{kind: stopErr, msg: fmt.Sprintf("jump to missing block b%d", t.To)}
			}
			cur = next
		case mir.TermCond:
			a, okA := fr.read(t.A)
			if !okA {
				return 0, &stop{kind: stopErr, msg: "branch reads unallocated vreg"}
			}
			b := uint64(t.BImm)
			if !t.BIsImm {
				var okB bool
				b, okB = fr.read(t.B)
				if !okB {
					return 0, &stop{kind: stopErr, msg: "branch reads unallocated vreg"}
				}
			}
			to := t.Else
			if isa.Cond(t.Rel, false, a, b) {
				to = t.To
			}
			next := f.BlockByID(to)
			if next == nil {
				return 0, &stop{kind: stopErr, msg: fmt.Sprintf("branch to missing block b%d", to)}
			}
			cur = next
		case mir.TermRet:
			if t.RetIsImm {
				return uint64(t.RetImm), nil
			}
			v, ok := fr.read(t.Ret)
			if !ok {
				return 0, &stop{kind: stopErr, msg: "return reads unallocated vreg"}
			}
			return v, nil
		case mir.TermTrap:
			return 0, &stop{kind: stopTrap, trap: t.TrapCode}
		default:
			return 0, &stop{kind: stopErr, msg: "unterminated block"}
		}
	}
}

func (m *machine) step(fr *frame, in *mir.Insn) *stop {
	m.w.fuel--
	if m.w.fuel < 0 {
		return &stop{kind: stopFuel}
	}
	readA := func() (uint64, *stop) {
		v, ok := fr.read(in.A)
		if !ok {
			return 0, &stop{kind: stopErr, msg: fmt.Sprintf("%s reads unallocated v%d", in.String(), in.A)}
		}
		return v, nil
	}
	readB := func() (uint64, *stop) {
		if in.BIsImm {
			return uint64(in.BImm), nil
		}
		v, ok := fr.read(in.B)
		if !ok {
			return 0, &stop{kind: stopErr, msg: fmt.Sprintf("%s reads unallocated v%d", in.String(), in.B)}
		}
		return v, nil
	}
	index := func() (uint64, *stop) {
		if in.IdxIsImm {
			return uint64(in.IdxImm), nil
		}
		return readA()
	}

	switch in.Op {
	case mir.OpParam:
		// Out-of-range params read zero (the ABI zeroes unused arg regs).
		var v uint64
		if i := int(in.Imm); i >= 0 && i < len(m.w.args) {
			v = m.w.args[i]
		}
		fr.write(in.Dst, v)

	case mir.OpConst:
		fr.write(in.Dst, uint64(in.Imm))

	case mir.OpCopy:
		a, st := readA()
		if st != nil {
			return st
		}
		fr.write(in.Dst, a)

	case mir.OpNeg:
		a, st := readA()
		if st != nil {
			return st
		}
		fr.write(in.Dst, -a)

	case mir.OpBin:
		a, st := readA()
		if st != nil {
			return st
		}
		b, st := readB()
		if st != nil {
			return st
		}
		// The trap is the naive build's div check; where none was emitted
		// the ALU's defined x/0 and x%0 results apply.
		if b == 0 && (in.Bin == isa.OpDiv || in.Bin == isa.OpMod) && emitSite(fr.f, in.Site) {
			return &stop{kind: stopTrap, trap: compile.TrapDivByZero}
		}
		res, ok := isa.ALU(in.Bin, a, b, true)
		if !ok {
			return &stop{kind: stopErr, msg: fmt.Sprintf("unknown operator %#x", in.Bin)}
		}
		fr.write(in.Dst, res)

	case mir.OpCmp:
		a, st := readA()
		if st != nil {
			return st
		}
		b, st := readB()
		if st != nil {
			return st
		}
		var res uint64
		if isa.Cond(in.Bin, false, a, b) {
			res = 1
		}
		fr.write(in.Dst, res)

	case mir.OpArrLoad:
		idx, st := index()
		if st != nil {
			return st
		}
		arr := fr.arrs[in.Arr]
		if idx >= uint64(len(arr)) {
			if emitSite(fr.f, in.Site) {
				return &stop{kind: stopTrap, trap: compile.TrapOOB}
			}
			// Unchecked out-of-bounds read: poison value, and an effect so
			// the divergence is caught even if the poison never flows to
			// the verdict.
			m.w.log("oob-load", uint64(in.Arr), idx)
			fr.write(in.Dst, mix(m.w.seed, hashStr("oob-load"), uint64(in.Arr), idx))
			return nil
		}
		fr.write(in.Dst, uint64(arr[idx]))

	case mir.OpArrStore:
		idx, st := index()
		if st != nil {
			return st
		}
		b, st := readB()
		if st != nil {
			return st
		}
		arr := fr.arrs[in.Arr]
		if idx >= uint64(len(arr)) {
			if emitSite(fr.f, in.Site) {
				return &stop{kind: stopTrap, trap: compile.TrapOOB}
			}
			m.w.log("wild-store", uint64(in.Arr), idx, b)
			return nil
		}
		arr[idx] = byte(b)

	case mir.OpArrZero:
		arr := fr.arrs[in.Arr]
		for i := range arr {
			arr[i] = 0
		}

	case mir.OpCallCrate:
		res, st := m.crate(fr, in)
		if st != nil {
			return st
		}
		fr.write(in.Dst, res)

	case mir.OpCallUser:
		callee, ok := m.funcs[in.Name]
		if !ok {
			return &stop{kind: stopErr, msg: "call to unknown function " + in.Name}
		}
		args := make([]uint64, 0, len(in.Args))
		for i := range in.Args {
			a := &in.Args[i]
			if a.IsImm {
				args = append(args, uint64(a.Imm))
				continue
			}
			v, ok := fr.read(a.V)
			if !ok {
				return &stop{kind: stopErr, msg: fmt.Sprintf("call arg reads unallocated v%d", a.V)}
			}
			args = append(args, v)
		}
		savedArgs := m.w.args
		m.w.args = args
		res, st := m.call(callee, args, false)
		m.w.args = savedArgs
		if st != nil {
			return st
		}
		fr.write(in.Dst, res)

	default:
		return &stop{kind: stopErr, msg: "unknown instruction"}
	}
	return nil
}
