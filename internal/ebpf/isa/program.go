package isa

import "fmt"

// ProgType classifies what kernel hook a program attaches to, which
// determines its context layout and the helpers it may call.
type ProgType int

const (
	// SocketFilter programs see a packet context (skb) and may use direct
	// packet access.
	SocketFilter ProgType = iota
	// XDP programs see the same packet context at the driver hook.
	XDP
	// Tracing programs attach to kernel events; their context is opaque
	// scratch readable as scalars.
	Tracing
	// Syscall programs run from the bpf(2) path (BPF_PROG_TYPE_SYSCALL),
	// the type bpf_sys_bpf is reachable from.
	Syscall
)

func (t ProgType) String() string {
	switch t {
	case SocketFilter:
		return "socket_filter"
	case XDP:
		return "xdp"
	case Tracing:
		return "tracing"
	case Syscall:
		return "syscall"
	}
	return fmt.Sprintf("progtype(%d)", int(t))
}

// Program is one extension program in decoded form: the unit the verifier
// checks, the JIT compiles, and the engines execute.
type Program struct {
	Name    string
	Type    ProgType
	License string
	Insns   []Instruction
}

// PseudoFuncRef marks an LDDW whose immediate is the element index of a
// local function (callback target), the kernel's BPF_PSEUDO_FUNC.
const PseudoFuncRef = 4

// PseudoRodata marks an LDDW whose immediate is an offset into the
// program's read-only data section; the loader adds the mapped base.
const PseudoRodata = 5

// LoadRodataRef emits an LDDW that materialises the address of rodata
// offset off after load-time fixup.
func LoadRodataRef(dst Register, off int64) Instruction {
	return Instruction{Op: ClassLD | ModeIMM | SizeDW, Dst: dst, Src: PseudoRodata, Const: off, Imm: int32(off)}
}

// IsRodataRef reports whether the instruction is a rodata-address load.
func (ins Instruction) IsRodataRef() bool {
	return ins.IsWide() && ins.Src == PseudoRodata
}

// LoadFuncRef emits an LDDW that materialises a callback-function pointer
// for helpers like bpf_loop. pc is the instruction element index of the
// callback's first instruction.
func LoadFuncRef(dst Register, pc int32) Instruction {
	return Instruction{Op: ClassLD | ModeIMM | SizeDW, Dst: dst, Src: PseudoFuncRef, Const: int64(pc), Imm: pc}
}

// IsFuncRef reports whether the instruction is a callback-pointer load.
func (ins Instruction) IsFuncRef() bool {
	return ins.IsWide() && ins.Src == PseudoFuncRef
}

// IsMapRef reports whether the instruction is a map-handle load.
func (ins Instruction) IsMapRef() bool {
	return ins.IsWide() && ins.Src == PseudoMapFD
}

// ValidateStructure performs the context-free checks every loader runs
// before deeper analysis: known opcodes, register ranges, jump targets
// inside the program, and a terminating last instruction. It is the shared
// front gate of both the verifier and the safext loader.
func (p *Program) ValidateStructure() error {
	n := len(p.Insns)
	if n == 0 {
		return fmt.Errorf("isa: %s: empty program", p.Name)
	}
	for i, ins := range p.Insns {
		if ins.Dst >= NumRegisters || ins.Src > 15 {
			return fmt.Errorf("isa: %s: insn %d: bad register", p.Name, i)
		}
		switch ins.Class() {
		case ClassALU, ClassALU64:
			op := ins.ALUOp()
			if _, ok := ALU(op, 0, 0, true); !ok {
				return fmt.Errorf("isa: %s: insn %d: unknown ALU op %#x", p.Name, i, ins.Op)
			}
		case ClassJMP, ClassJMP32:
			op := ins.ALUOp()
			_, known := jmpMnemonics[op]
			if !known && op != OpJa && op != OpCall && op != OpExit {
				return fmt.Errorf("isa: %s: insn %d: unknown jump op %#x", p.Name, i, ins.Op)
			}
			if ins.Class() == ClassJMP32 && (op == OpCall || op == OpExit) {
				return fmt.Errorf("isa: %s: insn %d: call/exit must be 64-bit class", p.Name, i)
			}
			if ins.IsJump() {
				if tgt := i + 1 + int(ins.Off); tgt < 0 || tgt >= n {
					return fmt.Errorf("isa: %s: insn %d: jump target %d out of range", p.Name, i, tgt)
				}
			}
			if ins.IsBPFCall() {
				if tgt := i + 1 + int(ins.Imm); tgt < 0 || tgt >= n {
					return fmt.Errorf("isa: %s: insn %d: call target %d out of range", p.Name, i, tgt)
				}
			}
		case ClassLD:
			if !ins.IsWide() {
				return fmt.Errorf("isa: %s: insn %d: legacy LD mode unsupported", p.Name, i)
			}
			if ins.IsFuncRef() {
				if tgt := int(ins.Const); tgt < 0 || tgt >= n {
					return fmt.Errorf("isa: %s: insn %d: func ref target %d out of range", p.Name, i, tgt)
				}
			}
		case ClassLDX, ClassST, ClassSTX:
			if SizeBytes(ins.Size()) == 0 {
				return fmt.Errorf("isa: %s: insn %d: bad access size", p.Name, i)
			}
			if ins.Mode() != ModeMEM && !(ins.Class() == ClassSTX && ins.Mode() == ModeATOMIC) {
				return fmt.Errorf("isa: %s: insn %d: unsupported mode %#x", p.Name, i, ins.Mode())
			}
		default:
			return fmt.Errorf("isa: %s: insn %d: unknown class %#x", p.Name, i, ins.Class())
		}
	}
	last := p.Insns[n-1]
	if !last.IsExit() && !last.IsUnconditionalJump() {
		return fmt.Errorf("isa: %s: program does not end with exit or jump", p.Name)
	}
	return nil
}
