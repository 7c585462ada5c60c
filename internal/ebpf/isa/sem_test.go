package isa

import "testing"

// The spec test for the ALU and branch table. Every expected value is a
// literal worked out from the eBPF instruction-set definition, never the
// output of another implementation, so this file and the SLX differential
// fuzzer's Go reference model are the oracles the shared table answers to.

const (
	m64 = ^uint64(0)           // -1 at 64 bits
	sgn = uint64(1) << 63      // 64-bit sign bit
	hi  = uint64(0xdead) << 40 // junk for a 32-bit op to ignore
)

func TestALUSpec(t *testing.T) {
	cases := []struct {
		op       uint8
		is64     bool
		dst, src uint64
		want     uint64
	}{
		// 64-bit: wraparound, division by zero, masked shifts.
		{OpAdd, true, m64, 1, 0},
		{OpAdd, true, 1, 2, 3},
		{OpSub, true, 0, 1, m64},
		{OpMul, true, 1 << 32, 1 << 32, 0},
		{OpMul, true, 3, 5, 15},
		{OpDiv, true, 7, 2, 3},
		{OpDiv, true, 7, 0, 0},
		{OpDiv, true, m64, m64, 1},
		{OpMod, true, 7, 3, 1},
		{OpMod, true, 7, 0, 7},
		{OpMod, true, 0x1_0000_0007, 3, 2},
		{OpOr, true, 0xf0, 0x0f, 0xff},
		{OpAnd, true, 0xff, 0x0f, 0x0f},
		{OpXor, true, 0xff, 0x0f, 0xf0},
		{OpMov, true, 5, 0x1234_5678_9abc_def0, 0x1234_5678_9abc_def0},
		{OpLsh, true, 1, 63, sgn},
		{OpLsh, true, 1, 64, 1},
		{OpLsh, true, 1, 65, 2},
		{OpRsh, true, sgn, 63, 1},
		{OpRsh, true, sgn, 64, sgn},
		{OpArsh, true, sgn, 63, m64},
		{OpArsh, true, 0xffff_ffff_ffff_fff0, 2, 0xffff_ffff_ffff_fffc},
		{OpArsh, true, sgn, 64, sgn},
		{OpArsh, true, 0x8000_0000, 4, 0x0800_0000},
		{OpNeg, true, 1, 0, m64},
		{OpNeg, true, 0, 0, 0},
		{OpEnd, true, 0x1_2345_6789, 0, 0x1_2345_6789},

		// 32-bit: low halves in, zero-extended result out.
		{OpAdd, false, hi | 0xffff_ffff, hi | 1, 0},
		{OpSub, false, hi, 1, 0xffff_ffff},
		{OpMul, false, hi | 3, hi | 5, 15},
		{OpMul, false, 0x1_0000, 0x1_0000, 0},
		{OpDiv, false, 0xffff_ffff, m64, 1},
		{OpDiv, false, 0x1_0000_0007, 3, 2},
		{OpDiv, false, 7, 0, 0},
		{OpDiv, false, 7, 0x5_0000_0000, 0},
		{OpMod, false, 0x1_0000_0007, 3, 1},
		{OpMod, false, 0x1_0000_0007, 0, 7},
		{OpMod, false, 0x1_0000_0007, 0x2_0000_0000, 7},
		{OpOr, false, hi | 0xf0, hi | 0x0f, 0xff},
		{OpAnd, false, m64, 0xffff_ffff_0000_ffff, 0xffff},
		{OpXor, false, 0x1_0000_00ff, 0x2_0000_000f, 0xf0},
		{OpMov, false, 5, 0xdead_beef_1234_5678, 0x1234_5678},
		{OpLsh, false, 1, 31, 0x8000_0000},
		{OpLsh, false, 1, 32, 1},
		{OpLsh, false, 1, 33, 2},
		{OpLsh, false, 0x1_0000_0001, 1, 2},
		{OpRsh, false, 0xffff_ffff_8000_0000, 31, 1},
		{OpRsh, false, 0xffff_ffff_8000_0000, 32, 0x8000_0000},
		{OpArsh, false, 0x8000_0000, 31, 0xffff_ffff},
		{OpArsh, false, 0x1_8000_0000, 4, 0xf800_0000},
		{OpArsh, false, 0xffff_fff0, 2, 0xffff_fffc},
		{OpArsh, false, 0x8000_0000, 32, 0x8000_0000},
		{OpArsh, false, 0x1_7fff_ffff, 4, 0x07ff_ffff},
		{OpNeg, false, 5, 0, 0xffff_fffb},
		{OpNeg, false, 0x1_0000_0000, 0, 0},
		{OpEnd, false, 0x1_2345_6789, 0, 0x2345_6789},
	}
	for _, c := range cases {
		got, ok := ALU(c.op, c.dst, c.src, c.is64)
		if !ok || got != c.want {
			t.Errorf("ALU(%#x, %#x, %#x, is64=%v) = %#x, %v; want %#x", c.op, c.dst, c.src, c.is64, got, ok, c.want)
		}
	}
	for _, op := range []uint8{0xe0, 0xf0} {
		for _, is64 := range []bool{false, true} {
			if v, ok := ALU(op, 1, 1, is64); ok {
				t.Errorf("undefined ALU op %#x (is64=%v) = %#x, ok; want !ok", op, is64, v)
			}
		}
	}
}

func TestCondSpec(t *testing.T) {
	const smax, smin32 = sgn - 1, uint64(0x8000_0000)
	cases := []struct {
		op       uint8
		jmp32    bool
		dst, src uint64
		want     bool
	}{
		// 64-bit.
		{OpJeq, false, 5, 5, true},
		{OpJeq, false, 0x1_0000_0005, 5, false},
		{OpJne, false, 0x1_0000_0005, 5, true},
		{OpJne, false, 5, 5, false},
		{OpJgt, false, sgn, smax, true},
		{OpJgt, false, 5, 5, false},
		{OpJge, false, 5, 5, true},
		{OpJge, false, 4, 5, false},
		{OpJlt, false, 0, m64, true},
		{OpJlt, false, m64, 0, false},
		{OpJle, false, 5, 5, true},
		{OpJle, false, m64, 0, false},
		{OpJset, false, 0x10, 0x30, true},
		{OpJset, false, 0x10, 0x20, false},
		{OpJsgt, false, sgn, smax, false},
		{OpJsgt, false, smax, sgn, true},
		{OpJsge, false, m64, 0, false},
		{OpJsge, false, m64, m64, true},
		{OpJslt, false, 0, m64, false},
		{OpJslt, false, m64, 0, true},
		{OpJsle, false, sgn, smax, true},
		{OpJsle, false, 0, m64, false},

		// 32-bit: only the low halves count.
		{OpJeq, true, 0x1_0000_0005, 0x2_0000_0005, true},
		{OpJne, true, 0x1_0000_0005, 0x2_0000_0005, false},
		{OpJgt, true, smin32, 0x7fff_ffff, true},
		{OpJgt, true, 0x1_0000_0000, 1, false},
		{OpJge, true, hi | 5, 5, true},
		{OpJge, true, 0x1_0000_0000, 1, false},
		{OpJlt, true, 0x1_0000_0000, 1, true},
		{OpJlt, true, 0xffff_ffff, 0, false},
		{OpJle, true, hi, 0, true},
		{OpJle, true, smin32, 0x7fff_ffff, false},
		{OpJset, true, 0x1_0000_0000, 0x1_0000_0000, false},
		{OpJset, true, hi | 1, 1, true},
		{OpJsgt, true, smin32, 0x7fff_ffff, false},
		{OpJsgt, true, 0x7fff_ffff, 0xffff_ffff_8000_0000, true},
		{OpJsge, true, 0xffff_ffff, 0, false},
		{OpJsge, true, 0x1_0000_0000, 0, true},
		{OpJslt, true, 0xffff_ffff, 0, true},
		{OpJslt, true, hi | 1, 0, false},
		{OpJsle, true, smin32, 0x7fff_ffff, true},
		{OpJsle, true, 0x7fff_ffff, smin32, false},

		// Not conditional.
		{OpJa, false, 0, 0, false},
		{OpCall, false, 0, 0, false},
		{OpExit, false, 0, 0, false},
	}
	for _, c := range cases {
		if got := Cond(c.op, c.jmp32, c.dst, c.src); got != c.want {
			t.Errorf("Cond(%#x, jmp32=%v, %#x, %#x) = %v; want %v", c.op, c.jmp32, c.dst, c.src, got, c.want)
		}
	}
	// The sign boundary at 64 bits is not one at 32.
	if Cond(OpJslt, false, 0xffff_ffff, 0) {
		t.Error("64-bit 0xffffffff s< 0 must be false")
	}
}

func TestSwapCondSpec(t *testing.T) {
	pairs := map[uint8]uint8{
		OpJeq: OpJeq, OpJne: OpJne, OpJset: OpJset,
		OpJgt: OpJlt, OpJlt: OpJgt, OpJge: OpJle, OpJle: OpJge,
		OpJsgt: OpJslt, OpJslt: OpJsgt, OpJsge: OpJsle, OpJsle: OpJsge,
	}
	vals := []uint64{0, 1, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff, 0x1_0000_0000, sgn - 1, sgn, m64}
	for op, want := range pairs {
		if got := SwapCond(op); got != want {
			t.Errorf("SwapCond(%#x) = %#x; want %#x", op, got, want)
		}
		for _, jmp32 := range []bool{false, true} {
			for _, a := range vals {
				for _, b := range vals {
					if Cond(SwapCond(op), jmp32, b, a) != Cond(op, jmp32, a, b) {
						t.Errorf("op %#x jmp32=%v: swapped order disagrees on (%#x, %#x)", op, jmp32, a, b)
					}
				}
			}
		}
	}
}

// FuzzALU checks the 32-bit contract on arbitrary operands: a 32-bit op
// ignores its operands' high halves and never sets its result's, and every
// conditional jump agrees with its operand-swapped twin at both widths.
func FuzzALU(f *testing.F) {
	f.Add(uint8(OpDiv), ^uint64(0), ^uint64(0))
	f.Add(uint8(OpMod), uint64(0x1_0000_0007), uint64(3))
	f.Add(uint8(OpArsh), uint64(0x8000_0000), uint64(31))
	f.Add(uint8(OpJslt), uint64(0xffff_ffff), uint64(0))
	f.Fuzz(func(t *testing.T, op uint8, a, b uint64) {
		op &= 0xf0
		v, ok := ALU(op, a, b, false)
		w, okw := ALU(op, uint64(uint32(a)), uint64(uint32(b)), false)
		if v != w || ok != okw {
			t.Fatalf("ALU(%#x, %#x, %#x, 32-bit) = %#x, %v but on low halves = %#x, %v", op, a, b, v, ok, w, okw)
		}
		if v>>32 != 0 {
			t.Fatalf("ALU(%#x, %#x, %#x, 32-bit) = %#x: high half set", op, a, b, v)
		}
		for _, jmp32 := range []bool{false, true} {
			if Cond(SwapCond(op), jmp32, b, a) != Cond(op, jmp32, a, b) {
				t.Fatalf("Cond(%#x, jmp32=%v): swapped order disagrees on (%#x, %#x)", op, jmp32, a, b)
			}
		}
	})
}
