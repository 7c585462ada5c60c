package verifier

import (
	"testing"
	"testing/quick"

	"kex/internal/ebpf/isa"
)

// narrow generates values whose low bits vary, exercising tnum corner
// cases better than uniform 64-bit noise.
func narrow(x uint64) uint64 { return x & 0x3ff }

// mk builds a tnum abstracting both a and b (their union).
func mk(a, b uint64) Tnum { return TnumConst(a).Union(TnumConst(b)) }

// Soundness: for every binary tnum op, if ta contains a and tb contains b,
// the abstract result must contain the concrete result.
func TestTnumSoundness(t *testing.T) {
	type binop struct {
		name     string
		abstract func(Tnum, Tnum) Tnum
		concrete func(uint64, uint64) uint64
	}
	ops := []binop{
		{"add", Tnum.Add, func(a, b uint64) uint64 { return a + b }},
		{"sub", Tnum.Sub, func(a, b uint64) uint64 { return a - b }},
		{"and", Tnum.And, func(a, b uint64) uint64 { return a & b }},
		{"or", Tnum.Or, func(a, b uint64) uint64 { return a | b }},
		{"xor", Tnum.Xor, func(a, b uint64) uint64 { return a ^ b }},
		{"mul", Tnum.Mul, func(a, b uint64) uint64 { return a * b }},
	}
	for _, op := range ops {
		op := op
		t.Run(op.name, func(t *testing.T) {
			f := func(a1, a2, b1, b2 uint64) bool {
				a1, a2, b1, b2 = narrow(a1), narrow(a2), narrow(b1), narrow(b2)
				ta, tb := mk(a1, a2), mk(b1, b2)
				out := op.abstract(ta, tb)
				for _, a := range []uint64{a1, a2} {
					for _, b := range []uint64{b1, b2} {
						if !out.Contains(op.concrete(a, b)) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTnumShiftSoundness(t *testing.T) {
	f := func(a1, a2 uint64, s uint8) bool {
		s %= 64
		ta := mk(narrow(a1), narrow(a2))
		l, r, ar := ta.Lshift(s), ta.Rshift(s), ta.Arshift(s)
		for _, a := range []uint64{narrow(a1), narrow(a2)} {
			if !l.Contains(a<<s) || !r.Contains(a>>s) || !ar.Contains(uint64(int64(a)>>s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTnumRangeContains(t *testing.T) {
	f := func(lo, hi uint64, probe uint64) bool {
		lo, hi = narrow(lo), narrow(hi)
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := TnumRange(lo, hi)
		// Every value in [lo,hi] must be contained.
		v := lo + probe%(hi-lo+1)
		return tr.Contains(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTnumSubsetAndIntersect(t *testing.T) {
	f := func(a1, a2, b1 uint64) bool {
		a1, a2, b1 = narrow(a1), narrow(a2), narrow(b1)
		u := mk(a1, a2)
		// A union contains both constituents.
		if !u.Subset(TnumConst(a1)) || !u.Subset(TnumConst(a2)) {
			return false
		}
		// Intersect with a contained constant stays containing it.
		if u.Contains(b1) {
			i := u.Intersect(TnumConst(b1))
			if !i.Contains(b1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTnumBasics(t *testing.T) {
	c := TnumConst(42)
	if !c.IsConst() || c.Value != 42 || !c.Contains(42) || c.Contains(43) {
		t.Fatal("const tnum wrong")
	}
	if TnumUnknown.IsConst() || !TnumUnknown.Contains(0xdeadbeef) {
		t.Fatal("unknown tnum wrong")
	}
	if got := c.Cast32(); got.Value != 42 {
		t.Fatal("cast32 wrong")
	}
	big := TnumConst(0x1_0000_002a)
	if got := big.Cast32(); got.Value != 42 {
		t.Fatalf("cast32 of wide = %v", got)
	}
	min, max := mk(3, 12).UnsignedBounds()
	if min > 3 || max < 12 {
		t.Fatalf("bounds [%d,%d] exclude {3,12}", min, max)
	}
}

// Scalar ALU soundness: the abstract transfer function must contain the
// concrete eBPF result for singleton inputs.
func TestAdjustScalarsSoundness(t *testing.T) {
	v := &Verifier{cfg: DefaultConfig(), res: &Result{}}
	st := newState()
	ops := []uint8{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod, isa.OpAnd, isa.OpOr, isa.OpXor}
	f := func(a, b uint64, opIdx uint8, wideA bool) bool {
		op := ops[int(opIdx)%len(ops)]
		if !wideA {
			a = narrow(a)
			b = narrow(b)
		}
		da, db := constScalar(a), constScalar(b)
		// Widen one operand to a range to exercise the interval paths.
		db2 := db
		db2.UMax = db.UMax + 16
		db2.SMax = db.SMax + 16
		db2.Tnum = db.Tnum.Union(TnumConst(b + 16))
		out, err := v.adjustScalars(st, op, da, db2, true)
		if err != nil {
			return true // rejected is fine; only accepted results must be sound
		}
		concrete, ok := isa.ALU(op, a, b, true)
		if !ok {
			return true
		}
		return out.UMin <= concrete && concrete <= out.UMax && out.Tnum.Contains(concrete)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Branch refinement soundness: values satisfying the taken condition must
// remain within the refined bounds.
func TestRefineBranchSoundness(t *testing.T) {
	type cmp struct {
		op   uint8
		test func(a, b uint64) bool
	}
	cmps := []cmp{
		{isa.OpJeq, func(a, b uint64) bool { return a == b }},
		{isa.OpJne, func(a, b uint64) bool { return a != b }},
		{isa.OpJgt, func(a, b uint64) bool { return a > b }},
		{isa.OpJge, func(a, b uint64) bool { return a >= b }},
		{isa.OpJlt, func(a, b uint64) bool { return a < b }},
		{isa.OpJle, func(a, b uint64) bool { return a <= b }},
		{isa.OpJsgt, func(a, b uint64) bool { return int64(a) > int64(b) }},
		{isa.OpJslt, func(a, b uint64) bool { return int64(a) < int64(b) }},
	}
	f := func(a1, a2, b uint64, opIdx uint8, taken bool) bool {
		c := cmps[int(opIdx)%len(cmps)]
		a1, a2, b = narrow(a1), narrow(a2), narrow(b)
		dst := constScalar(a1)
		dst.UMin, dst.UMax = minU64(a1, a2), maxU64(a1, a2)
		dst.SMin, dst.SMax = int64(dst.UMin), int64(dst.UMax)
		dst.Tnum = mk(a1, a2)
		src := constScalar(b)
		refineBranch(c.op, taken, &dst, &src)
		// Each concrete a that satisfies the branch direction must survive.
		for _, a := range []uint64{a1, a2} {
			if c.test(a, b) == taken {
				if a < dst.UMin || a > dst.UMax || int64(a) < dst.SMin || int64(a) > dst.SMax {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
