// Package jit compiles eBPF bytecode to threaded Go closures — the
// simulator's analogue of the kernel's JIT compilers. Compilation happens
// once; execution dispatches through a flat slice of operation closures
// with no per-instruction decode, which is measurably faster than the
// interpreter (ablation A2/A3).
//
// Like the real JIT, this one sits *behind* the verifier and is itself
// unverified: Config.InjectBranchBug reintroduces a CVE-2021-29154-class
// miscompilation (a branch condition compiled off by one), demonstrating
// that a flawless verifier still cannot save a flawed backend (§2.1).
package jit

import (
	"fmt"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/kernel"
)

// Config controls compilation.
type Config struct {
	// InjectBranchBug miscompiles JGE comparisons as JGT (and JLE as JLT),
	// an off-by-one in branch synthesis: the class of backend bug that
	// CVE-2021-29154 exploited to hijack control flow from verified code.
	InjectBranchBug bool
}

// Compiled is a JIT-compiled program ready to run on a machine.
type Compiled struct {
	Prog *isa.Program
	ops  []op
	cfg  Config
}

// regs is the runtime register file.
type regs [isa.NumRegisters]uint64

// exec is the per-run mutable state shared by all closures.
type exec struct {
	m          *interp.Machine
	env        *helpers.Env
	fuel       uint64
	used       uint64
	watchdogNs int64

	stacks     []*kernel.Region
	freeStack  []*kernel.Region
	tailTo     *isa.Program
	tailCalls  int
	depth      int
	err        error
	currentOps []op
}

// op executes one compiled instruction: it receives the register file and
// returns the next pc, or -1 to stop (exit or error — check ex.err).
type op func(ex *exec, r *regs, pc int) int

// Compile translates a program into threaded closures.
func Compile(prog *isa.Program, cfg Config) (*Compiled, error) {
	if err := prog.ValidateStructure(); err != nil {
		return nil, err
	}
	c := &Compiled{Prog: prog, cfg: cfg}
	for i, ins := range prog.Insns {
		compiled, err := c.compileInsn(i, ins)
		if err != nil {
			return nil, err
		}
		c.ops = append(c.ops, compiled)
	}
	return c, nil
}

func (c *Compiled) compileInsn(pc int, ins isa.Instruction) (op, error) {
	switch ins.Class() {
	case isa.ClassALU64, isa.ClassALU:
		return c.compileALU(ins)
	case isa.ClassLD:
		if ins.MapName != "" {
			return nil, fmt.Errorf("jit: insn %d: unresolved map reference %q", pc, ins.MapName)
		}
		v := uint64(ins.Const)
		dst := ins.Dst
		return func(ex *exec, r *regs, pc int) int {
			r[dst] = v
			return pc + 1
		}, nil
	case isa.ClassLDX:
		size := isa.SizeBytes(ins.Size())
		dst, src, off := ins.Dst, ins.Src, int64(ins.Off)
		return func(ex *exec, r *regs, pc int) int {
			v, f := ex.m.K.Mem.LoadUint(r[src]+uint64(off), size)
			if f != nil {
				return ex.crash(f)
			}
			r[dst] = v
			return pc + 1
		}, nil
	case isa.ClassST:
		size := isa.SizeBytes(ins.Size())
		dst, off, imm := ins.Dst, int64(ins.Off), uint64(int64(ins.Imm))
		return func(ex *exec, r *regs, pc int) int {
			if f := ex.m.K.Mem.StoreUint(r[dst]+uint64(off), size, imm); f != nil {
				return ex.crash(f)
			}
			return pc + 1
		}, nil
	case isa.ClassSTX:
		if ins.Mode() == isa.ModeATOMIC {
			return c.compileAtomic(ins)
		}
		size := isa.SizeBytes(ins.Size())
		dst, src, off := ins.Dst, ins.Src, int64(ins.Off)
		return func(ex *exec, r *regs, pc int) int {
			if f := ex.m.K.Mem.StoreUint(r[dst]+uint64(off), size, r[src]); f != nil {
				return ex.crash(f)
			}
			return pc + 1
		}, nil
	case isa.ClassJMP, isa.ClassJMP32:
		return c.compileJump(ins)
	}
	return nil, fmt.Errorf("jit: unknown class %#x", ins.Class())
}

func (c *Compiled) compileALU(ins isa.Instruction) (op, error) {
	is64 := ins.Class() == isa.ClassALU64
	aluop, dst := ins.ALUOp(), ins.Dst
	// Every defined op succeeds on every operand, so an undefined one is
	// refused here and the closures need no failure branch.
	if _, ok := isa.ALU(aluop, 0, 0, is64); !ok {
		return nil, fmt.Errorf("jit: undefined ALU op %#x", ins.Op)
	}
	if ins.UsesX() {
		src := ins.Src
		return func(ex *exec, r *regs, pc int) int {
			r[dst], _ = isa.ALU(aluop, r[dst], r[src], is64)
			return pc + 1
		}, nil
	}
	imm := uint64(int64(ins.Imm))
	return func(ex *exec, r *regs, pc int) int {
		r[dst], _ = isa.ALU(aluop, r[dst], imm, is64)
		return pc + 1
	}, nil
}

func (c *Compiled) compileAtomic(ins isa.Instruction) (op, error) {
	size := isa.SizeBytes(ins.Size())
	dst, src, off, kind := ins.Dst, ins.Src, int64(ins.Off), ins.Imm
	return func(ex *exec, r *regs, pc int) int {
		mem := ex.m.K.Mem
		addr := r[dst] + uint64(off)
		old, f := mem.LoadUint(addr, size)
		if f != nil {
			return ex.crash(f)
		}
		switch kind {
		case isa.AtomicAdd:
			f = mem.StoreUint(addr, size, old+r[src])
		case isa.AtomicAdd | isa.AtomicFetch:
			f = mem.StoreUint(addr, size, old+r[src])
			r[src] = old
		case isa.AtomicXchg:
			f = mem.StoreUint(addr, size, r[src])
			r[src] = old
		case isa.AtomicCmpXchg:
			if old == r[0] {
				f = mem.StoreUint(addr, size, r[src])
			}
			r[0] = old
		default:
			return ex.fail(fmt.Errorf("jit: unsupported atomic %#x", kind))
		}
		if f != nil {
			return ex.crash(f)
		}
		return pc + 1
	}, nil
}

func (c *Compiled) compileJump(ins isa.Instruction) (op, error) {
	switch {
	case ins.IsExit():
		return func(ex *exec, r *regs, pc int) int { return -1 }, nil
	case ins.IsCall():
		id := helpers.ID(ins.Imm)
		return func(ex *exec, r *regs, pc int) int {
			spec, ok := ex.m.Helpers.ByID(id)
			if !ok || spec.Impl == nil {
				return ex.fail(fmt.Errorf("jit: helper %d unavailable", id))
			}
			ex.env.CountHelper(spec.Name)
			if ex.env.Fault != nil {
				if r0, ferr, injected := ex.env.Fault.HelperCall(ex.env, spec.Name); injected {
					if ferr != nil {
						return ex.fail(ferr)
					}
					r[0] = r0
					r[1], r[2], r[3], r[4], r[5] = 0, 0, 0, 0, 0
					return pc + 1
				}
			}
			ret, err := spec.Impl(ex.env, [5]uint64{r[1], r[2], r[3], r[4], r[5]})
			if err != nil {
				return ex.fail(err)
			}
			if ex.tailTo != nil {
				return -1
			}
			r[0] = ret
			r[1], r[2], r[3], r[4], r[5] = 0, 0, 0, 0, 0
			return pc + 1
		}, nil
	case ins.IsBPFCall():
		target := ins.Imm
		return func(ex *exec, r *regs, pc int) int {
			var sub regs
			copy(sub[1:6], r[1:6])
			ret, err := ex.call(int(int32(pc)+1+target), sub, 1)
			if err != nil {
				return ex.fail(err)
			}
			r[0] = ret
			r[1], r[2], r[3], r[4], r[5] = 0, 0, 0, 0, 0
			return pc + 1
		}, nil
	case ins.IsUnconditionalJump():
		off := int(ins.Off)
		return func(ex *exec, r *regs, pc int) int { return pc + 1 + off }, nil
	}

	// Conditional jumps. The injected backend bug rewrites >= to > and
	// <= to <, silently weakening verified bounds checks.
	cmp := ins
	if c.cfg.InjectBranchBug && cmp.Class() == isa.ClassJMP {
		switch cmp.ALUOp() {
		case isa.OpJge:
			cmp.Op = cmp.Op&^0xf0 | isa.OpJgt
		case isa.OpJle:
			cmp.Op = cmp.Op&^0xf0 | isa.OpJlt
		}
	}
	off := int(ins.Off)
	jop, jmp32 := cmp.ALUOp(), cmp.Class() == isa.ClassJMP32
	if cmp.UsesX() {
		dst, src := cmp.Dst, cmp.Src
		return func(ex *exec, r *regs, pc int) int {
			if isa.Cond(jop, jmp32, r[dst], r[src]) {
				return pc + 1 + off
			}
			return pc + 1
		}, nil
	}
	dst, imm := cmp.Dst, uint64(int64(cmp.Imm))
	return func(ex *exec, r *regs, pc int) int {
		if isa.Cond(jop, jmp32, r[dst], imm) {
			return pc + 1 + off
		}
		return pc + 1
	}, nil
}

func (ex *exec) crash(f *kernel.Fault) int {
	ex.m.K.FaultOops(f, ex.env.Ctx.CPUID)
	ex.err = helpers.ErrKernelCrash
	return -1
}

func (ex *exec) fail(err error) int {
	ex.err = err
	return -1
}

func (ex *exec) newStack() *kernel.Region {
	if n := len(ex.freeStack); n > 0 {
		s := ex.freeStack[n-1]
		ex.freeStack = ex.freeStack[:n-1]
		clear(s.Data)
		return s
	}
	s := ex.m.StackFrame(ex.env.Ctx.CPUID)
	ex.stacks = append(ex.stacks, s)
	return s
}

// jitTickBatch matches the interpreter's time-accounting granularity.
const jitTickBatch = 64

// call runs one function activation of the compiled program. Depth is
// tracked on the exec so nested activations through closures and callback
// helpers share one budget, as the interpreter's explicit threading does.
func (ex *exec) call(entry int, r regs, _ int) (uint64, error) {
	ex.depth++
	defer func() { ex.depth-- }()
	if ex.depth > 9 { // main frame + 8 nested calls, the kernel's limit
		return 0, interp.ErrCallDepth
	}
	frame := ex.newStack()
	defer func() { ex.freeStack = append(ex.freeStack, frame) }()
	r[10] = frame.End()

	ops := ex.currentOps
	pc := entry
	batch := uint64(0)
	for pc >= 0 {
		if pc >= len(ops) {
			return 0, fmt.Errorf("jit: pc %d out of range", pc)
		}
		batch++
		if batch >= jitTickBatch {
			ex.used += batch
			ex.env.Ctx.Tick(batch)
			batch = 0
			if ex.fuel > 0 && ex.used >= ex.fuel {
				return 0, interp.ErrFuelExhausted
			}
			if ex.watchdogNs > 0 && ex.env.Ctx.Runtime() >= ex.watchdogNs {
				return 0, interp.ErrWatchdogExpired
			}
		}
		pc = ops[pc](ex, &r, pc)
	}
	ex.used += batch
	ex.env.Ctx.Tick(batch)
	if ex.err != nil {
		err := ex.err
		ex.err = nil
		return 0, err
	}
	if ex.fuel > 0 && ex.used >= ex.fuel {
		return 0, interp.ErrFuelExhausted
	}
	return r[0], nil
}

// Run executes the compiled program, mirroring interp.Machine.Run.
func (c *Compiled) Run(m *interp.Machine, env *helpers.Env, opts interp.Options) (uint64, error) {
	ex := &exec{m: m, env: env, fuel: opts.Fuel, watchdogNs: opts.WatchdogNs}
	env.Bugs = opts.Bugs
	defer func() {
		// Publish the fuel meter's final reading for the execution core.
		env.FuelUsed = ex.used
		for _, s := range ex.stacks {
			m.ReleaseFrame(env.Ctx.CPUID, s)
		}
	}()

	cur := c
	env.CallFunc = func(pc int32, a1, a2, a3 uint64) (uint64, error) {
		var r regs
		r[1], r[2], r[3] = a1, a2, a3
		return ex.call(int(pc), r, 1)
	}
	env.TailCall = func(index uint64) error {
		if ex.tailCalls >= 33 {
			return interp.ErrTailCallLimit
		}
		if index >= uint64(len(opts.ProgArray)) || opts.ProgArray[index] == nil {
			return fmt.Errorf("jit: no program at index %d", index)
		}
		ex.tailCalls++
		ex.tailTo = opts.ProgArray[index]
		return nil
	}

	for {
		ex.currentOps = cur.ops
		var r regs
		r[1] = env.CtxAddr
		ret, err := ex.call(0, r, 0)
		if err != nil {
			return 0, err
		}
		if ex.tailTo == nil {
			return ret, nil
		}
		next, err := Compile(ex.tailTo, c.cfg)
		if err != nil {
			return 0, err
		}
		ex.tailTo = nil
		cur = next
	}
}
