package concheck

import (
	"testing"

	"kex/internal/ebpf/isa"
)

// TestProvJoin exercises the lattice join table.
func TestProvJoin(t *testing.T) {
	cases := []struct {
		name string
		p, q Prov
		want Prov
	}{
		{"bot-identity-left", botProv(), constProv(5), constProv(5)},
		{"bot-identity-right", cpuProv(), botProv(), cpuProv()},
		{"const-equal", constProv(7), constProv(7), constProv(7)},
		{"const-diverge", constProv(7), constProv(8), unknownProv()},
		{"ctx-ctx", ctxProv(), ctxProv(), ctxProv()},
		{"ctx-const", ctxProv(), constProv(0), unknownProv()},
		{"cpu-equal", cpuProv(), cpuProv(), cpuProv()},
		{"cpu-diverge", cpuProv(), Prov{kind: provCPU, a: 2}, unknownProv()},
		{"cpu-ctx", cpuProv(), ctxProv(), unknownProv()},
		{"unknown-absorbs", unknownProv(), constProv(1), unknownProv()},
	}
	for _, c := range cases {
		if got := c.p.Join(c.q); got != c.want {
			t.Errorf("%s: %v ⊔ %v = %v, want %v", c.name, c.p, c.q, got, c.want)
		}
	}
}

// TestTruncateInt32Boundary pins the behavior that makes false-percpu claims
// detectable: on a 4-byte-key map, a cpu() multiplier that is a multiple of
// 2^32 vanishes, and the "per-CPU" key is really one shared cell.
func TestTruncateInt32Boundary(t *testing.T) {
	cases := []struct {
		name    string
		p       Prov
		keyBits uint
		want    Prov
	}{
		{"const-wraps", constProv(1<<32 | 5), 32, constProv(5)},
		{"const-64-intact", constProv(1<<32 | 5), 64, constProv(1<<32 | 5)},
		{"cpu-survives", cpuProv(), 32, cpuProv()},
		{"cpu-shift32-collapses", Prov{kind: provCPU, a: 1 << 32}, 32, constProv(0)},
		{"cpu-shift32-offset-collapses", Prov{kind: provCPU, a: 1 << 32, b: 7}, 32, constProv(7)},
		{"cpu-shift32-64bit-intact", Prov{kind: provCPU, a: 1 << 32}, 64, Prov{kind: provCPU, a: 1 << 32}},
		{"cpu-odd-mult-survives", Prov{kind: provCPU, a: 3, b: 1}, 32, Prov{kind: provCPU, a: 3, b: 1}},
		{"ctx-unaffected", ctxProv(), 32, ctxProv()},
	}
	for _, c := range cases {
		if got := c.p.truncate(c.keyBits); got != c.want {
			t.Errorf("%s: truncate(%v, %d) = %v, want %v", c.name, c.p, c.keyBits, got, c.want)
		}
	}
}

// TestAliasDecisions pins MayAliasAcrossShards / Injective at both key
// widths, including the even-multiplier wraparound edge.
func TestAliasDecisions(t *testing.T) {
	cases := []struct {
		name     string
		p        Prov
		keyBits  uint
		mayAlias bool
	}{
		{"const-always-aliases", constProv(3), 64, true},
		{"ctx-aliases", ctxProv(), 64, true},
		{"unknown-aliases", unknownProv(), 64, true},
		{"bot-never", botProv(), 64, false},
		{"cpu-injective-64", cpuProv(), 64, false},
		{"cpu-injective-32", cpuProv(), 32, false},
		{"cpu-times-8-ok-32", Prov{kind: provCPU, a: 8}, 32, false},
		{"cpu-odd-mult-ok", Prov{kind: provCPU, a: 0xdeadbeef}, 32, false},
		// 1<<21 * MaxShardID(4096) = 2^33 wraps a 32-bit key: may alias.
		{"cpu-big-even-mult-aliases-32", Prov{kind: provCPU, a: 1 << 21}, 32, true},
		{"cpu-big-even-mult-ok-64", Prov{kind: provCPU, a: 1 << 21}, 64, false},
		// The false-percpu claim: collapses to const 0 on a 4-byte key.
		{"cpu-shift32-aliases-32", Prov{kind: provCPU, a: 1 << 32}, 32, true},
		{"cpu-shift32-ok-64", Prov{kind: provCPU, a: 1 << 32}, 64, false},
	}
	for _, c := range cases {
		if got := c.p.MayAliasAcrossShards(c.keyBits); got != c.mayAlias {
			t.Errorf("%s: MayAliasAcrossShards(%v, %d) = %v, want %v",
				c.name, c.p, c.keyBits, got, c.mayAlias)
		}
	}
}

// TestTransferBin pins the abstract arithmetic: affine CPU tracking through
// +,-,*,<<; degradation through non-injective operators; engine-exact
// constant folding.
func TestTransferBin(t *testing.T) {
	cases := []struct {
		name string
		op   uint8
		p, q Prov
		want Prov
	}{
		{"const-fold-add", isa.OpAdd, constProv(5), constProv(256), constProv(261)},
		{"const-fold-div0", isa.OpDiv, constProv(9), constProv(0), constProv(0)},
		{"const-fold-mod0", isa.OpMod, constProv(9), constProv(0), constProv(9)},
		{"const-fold-shift-mask", isa.OpLsh, constProv(1), constProv(65), constProv(2)},
		{"cpu-plus-const", isa.OpAdd, cpuProv(), constProv(10), Prov{kind: provCPU, a: 1, b: 10}},
		{"const-minus-cpu", isa.OpSub, constProv(10), cpuProv(), Prov{kind: provCPU, a: ^uint64(0), b: 10}},
		{"cpu-times-const", isa.OpMul, cpuProv(), constProv(8), Prov{kind: provCPU, a: 8}},
		{"cpu-shl-const", isa.OpLsh, cpuProv(), constProv(3), Prov{kind: provCPU, a: 8}},
		{"cpu-plus-cpu", isa.OpAdd, cpuProv(), cpuProv(), Prov{kind: provCPU, a: 2}},
		{"cpu-minus-cpu-vanishes", isa.OpSub, cpuProv(), cpuProv(), unknownProv()},
		{"cpu-mod-degrades", isa.OpMod, cpuProv(), constProv(2), unknownProv()},
		{"cpu-and-degrades", isa.OpAnd, cpuProv(), constProv(7), unknownProv()},
		{"ctx-plus-const-stays-ctx", isa.OpAdd, ctxProv(), constProv(1), ctxProv()},
		{"ctx-times-const-stays-ctx", isa.OpMul, ctxProv(), constProv(3), ctxProv()},
		{"ctx-and-const-stays-ctx", isa.OpAnd, ctxProv(), constProv(0xff), ctxProv()},
		{"ctx-plus-ctx-stays-ctx", isa.OpAdd, ctxProv(), ctxProv(), ctxProv()},
		{"ctx-plus-cpu-unknown", isa.OpAdd, ctxProv(), cpuProv(), unknownProv()},
		{"unknown-poisons", isa.OpAdd, unknownProv(), constProv(1), unknownProv()},
	}
	for _, c := range cases {
		if got := transferBin(c.op, true, c.p, c.q); got != c.want {
			t.Errorf("%s: %v op %#x %v = %v, want %v", c.name, c.p, c.op, c.q, got, c.want)
		}
	}
	// 32-bit: low halves in, and a shift amount masked to the 32-bit width.
	for _, c := range []struct {
		name string
		op   uint8
		p, q Prov
		want Prov
	}{
		{"w-const-div", isa.OpDiv, constProv(0xffff_ffff), constProv(^uint64(0)), constProv(1)},
		{"w-cpu-plus-const", isa.OpAdd, cpuProv(), constProv(1 << 32), cpuProv()},
		{"w-cpu-shl-40", isa.OpLsh, cpuProv(), constProv(40), Prov{kind: provCPU, a: 256}},
	} {
		if got := transferBin(c.op, false, c.p, c.q); got != c.want {
			t.Errorf("%s: %v op %#x %v (32-bit) = %v, want %v", c.name, c.p, c.op, c.q, got, c.want)
		}
	}
}

// TestSameAffine pins the shard-private-cell equivalence check.
func TestSameAffine(t *testing.T) {
	a := Prov{kind: provCPU, a: 2, b: 1}
	if !a.SameAffine(Prov{kind: provCPU, a: 2, b: 1}) {
		t.Error("identical affine forms must match")
	}
	if a.SameAffine(Prov{kind: provCPU, a: 2, b: 2}) {
		t.Error("different offsets must not match")
	}
	if a.SameAffine(constProv(1)) || constProv(1).SameAffine(constProv(1)) {
		t.Error("non-CPU provenances never satisfy SameAffine")
	}
}
