package isa

// The ALU and branch semantics of the instruction set, defined once. Both
// engines execute through these functions, the verifier folds constants
// with them, and the SLX optimizer, translation validator and shard-safety
// analysis evaluate MIR with them, so no layer carries its own copy of what
// an opcode computes. sem_test.go pins the table against literal values.

// ALU evaluates ALU operation op (the high four bits of an ALU or ALU64
// opcode) on dst and src. A 32-bit operation (is64 false) reads the low
// halves of its operands and zero-extends its result. Division by zero
// yields 0, modulo by zero leaves dst, and shift amounts are taken modulo
// the width. OpEnd is the identity. ok is false only for an undefined op.
func ALU(op uint8, dst, src uint64, is64 bool) (uint64, bool) {
	width := uint64(64)
	if !is64 {
		width = 32
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
	}
	var v uint64
	switch op {
	case OpAdd:
		v = dst + src
	case OpSub:
		v = dst - src
	case OpMul:
		v = dst * src
	case OpDiv:
		if src != 0 {
			v = dst / src
		}
	case OpMod:
		v = dst
		if src != 0 {
			v = dst % src
		}
	case OpOr:
		v = dst | src
	case OpAnd:
		v = dst & src
	case OpXor:
		v = dst ^ src
	case OpMov:
		v = src
	case OpLsh:
		v = dst << (src & (width - 1))
	case OpRsh:
		v = dst >> (src & (width - 1))
	case OpArsh:
		if is64 {
			v = uint64(int64(dst) >> (src & 63))
		} else {
			v = uint64(int32(dst) >> (src & 31))
		}
	case OpNeg:
		v = -dst
	case OpEnd:
		v = dst
	default:
		return 0, false
	}
	if !is64 {
		v = uint64(uint32(v))
	}
	return v, true
}

// Cond evaluates conditional jump op (the high four bits of a JMP or JMP32
// opcode) on dst and src. A 32-bit jump (jmp32) compares the low halves.
// OpJa, OpCall, OpExit and undefined ops are false.
func Cond(op uint8, jmp32 bool, dst, src uint64) bool {
	if jmp32 {
		switch op {
		case OpJsgt:
			return int32(dst) > int32(src)
		case OpJsge:
			return int32(dst) >= int32(src)
		case OpJslt:
			return int32(dst) < int32(src)
		case OpJsle:
			return int32(dst) <= int32(src)
		}
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
	}
	switch op {
	case OpJeq:
		return dst == src
	case OpJne:
		return dst != src
	case OpJgt:
		return dst > src
	case OpJge:
		return dst >= src
	case OpJlt:
		return dst < src
	case OpJle:
		return dst <= src
	case OpJset:
		return dst&src != 0
	case OpJsgt:
		return int64(dst) > int64(src)
	case OpJsge:
		return int64(dst) >= int64(src)
	case OpJslt:
		return int64(dst) < int64(src)
	case OpJsle:
		return int64(dst) <= int64(src)
	}
	return false
}

// SwapCond returns the jump op that holds of (src, dst) exactly when op
// holds of (dst, src): a<b ⇔ b>a. Symmetric ops are returned unchanged.
func SwapCond(op uint8) uint8 {
	switch op {
	case OpJgt:
		return OpJlt
	case OpJlt:
		return OpJgt
	case OpJge:
		return OpJle
	case OpJle:
		return OpJge
	case OpJsgt:
		return OpJslt
	case OpJslt:
		return OpJsgt
	case OpJsge:
		return OpJsle
	case OpJsle:
		return OpJsge
	}
	return op
}
