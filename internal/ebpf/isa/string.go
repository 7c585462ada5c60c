package isa

import "fmt"

// aluOperators maps ALU operation bits to their assembly operators.
var aluOperators = map[uint8]string{
	OpAdd:  "+=",
	OpSub:  "-=",
	OpMul:  "*=",
	OpDiv:  "/=",
	OpOr:   "|=",
	OpAnd:  "&=",
	OpLsh:  "<<=",
	OpRsh:  ">>=",
	OpMod:  "%=",
	OpXor:  "^=",
	OpMov:  "=",
	OpArsh: "s>>=",
}

// jmpMnemonics maps jump operation bits to their comparison operators.
var jmpMnemonics = map[uint8]string{
	OpJeq:  "==",
	OpJgt:  ">",
	OpJge:  ">=",
	OpJset: "&",
	OpJne:  "!=",
	OpJsgt: "s>",
	OpJsge: "s>=",
	OpJlt:  "<",
	OpJle:  "<=",
	OpJslt: "s<",
	OpJsle: "s<=",
}

// sizeMnemonics maps size bits to the C-style cast used in listings.
var sizeMnemonics = map[uint8]string{
	SizeB:  "u8",
	SizeH:  "u16",
	SizeW:  "u32",
	SizeDW: "u64",
}

// String renders the instruction in the bpftool-style assembly syntax that
// package asm parses, so String and the assembler round-trip.
func (ins Instruction) String() string {
	switch ins.Class() {
	case ClassALU64, ClassALU:
		// 32-bit operations use clang's w-register spelling.
		dst, src := ins.Dst.String(), ins.Src.String()
		if ins.Class() == ClassALU {
			dst = "w" + dst[1:]
			src = "w" + src[1:]
		}
		if ins.ALUOp() == OpNeg {
			return fmt.Sprintf("%s = -%s", dst, dst)
		}
		op, ok := aluOperators[ins.ALUOp()]
		if !ok {
			return fmt.Sprintf("alu(%#02x)", ins.Op)
		}
		if ins.UsesX() {
			return fmt.Sprintf("%s %s %s", dst, op, src)
		}
		return fmt.Sprintf("%s %s %d", dst, op, ins.Imm)

	case ClassLD:
		if ins.IsWide() {
			if ins.Src == PseudoMapFD {
				if ins.MapName != "" {
					return fmt.Sprintf("%s = map[%s]", ins.Dst, ins.MapName)
				}
				return fmt.Sprintf("%s = map[#%d]", ins.Dst, ins.Const)
			}
			return fmt.Sprintf("%s = %d ll", ins.Dst, ins.Const)
		}
		return fmt.Sprintf("ld(%#02x)", ins.Op)

	case ClassLDX:
		return fmt.Sprintf("%s = *(%s *)(%s %+d)", ins.Dst, sizeMnemonics[ins.Size()], ins.Src, ins.Off)

	case ClassSTX:
		if ins.Mode() == ModeATOMIC {
			switch ins.Imm {
			case AtomicAdd:
				return fmt.Sprintf("lock *(%s *)(%s %+d) += %s", sizeMnemonics[ins.Size()], ins.Dst, ins.Off, ins.Src)
			case AtomicAdd | AtomicFetch:
				return fmt.Sprintf("%s = atomic_fetch_add(*(%s *)(%s %+d), %s)", ins.Src, sizeMnemonics[ins.Size()], ins.Dst, ins.Off, ins.Src)
			case AtomicXchg:
				return fmt.Sprintf("%s = xchg(*(%s *)(%s %+d), %s)", ins.Src, sizeMnemonics[ins.Size()], ins.Dst, ins.Off, ins.Src)
			case AtomicCmpXchg:
				return fmt.Sprintf("r0 = cmpxchg(*(%s *)(%s %+d), r0, %s)", sizeMnemonics[ins.Size()], ins.Dst, ins.Off, ins.Src)
			}
			return fmt.Sprintf("atomic(%#02x imm=%d)", ins.Op, ins.Imm)
		}
		return fmt.Sprintf("*(%s *)(%s %+d) = %s", sizeMnemonics[ins.Size()], ins.Dst, ins.Off, ins.Src)

	case ClassST:
		return fmt.Sprintf("*(%s *)(%s %+d) = %d", sizeMnemonics[ins.Size()], ins.Dst, ins.Off, ins.Imm)

	case ClassJMP, ClassJMP32:
		switch ins.ALUOp() {
		case OpJa:
			return fmt.Sprintf("goto %+d", ins.Off)
		case OpCall:
			if ins.Src == PseudoCall {
				return fmt.Sprintf("call func %+d", ins.Imm)
			}
			return fmt.Sprintf("call %d", ins.Imm)
		case OpExit:
			return "exit"
		}
		op, ok := jmpMnemonics[ins.ALUOp()]
		if !ok {
			return fmt.Sprintf("jmp(%#02x)", ins.Op)
		}
		dst, src := ins.Dst.String(), ins.Src.String()
		if ins.Class() == ClassJMP32 {
			dst = "w" + dst[1:]
			src = "w" + src[1:]
		}
		if ins.UsesX() {
			return fmt.Sprintf("if %s %s %s goto %+d", dst, op, src, ins.Off)
		}
		return fmt.Sprintf("if %s %s %d goto %+d", dst, op, ins.Imm, ins.Off)
	}
	return fmt.Sprintf("insn(%#02x)", ins.Op)
}
