//go:build tvmutants

package runtime

import (
	"strings"
	"testing"

	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/toolchain"
)

// TestSeededMutantDemotesEndToEnd drives the whole fail-closed path with a
// real miscompilation: a seeded optimizer mutant makes the OptMIR build
// fail refinement, the toolchain demotes to OptElide with the refutation in
// the certificate, the loader accepts the demoted object, the program runs
// correctly (the demoted build is unmutated), and the demotion reason is
// visible in exec.Stats.
func TestSeededMutantDemotesEndToEnd(t *testing.T) {
	if !mir.SetMutant("fold-overflow") {
		t.Fatal("fold-overflow mutant unavailable")
	}
	defer mir.SetMutant("")

	const src = `
fn main() -> i64 {
	let a = 1 << 63;
	return a + a;
}
`
	f := newFixture(t, DefaultConfig())
	so, err := f.signer.BuildAndSignOptimizedMIR("mutant-e2e", src)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := toolchain.Deserialize(so.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Opt.Level != compile.OptElide {
		t.Fatalf("mutated build shipped at level %d, want fail-closed demotion to OptElide", obj.Opt.Level)
	}
	tv := obj.TVal
	if tv == nil || !tv.Demoted || tv.Validated {
		t.Fatalf("certificate = %+v, want demotion record", tv)
	}
	if !strings.Contains(tv.Reason, "diverges") {
		t.Fatalf("demotion reason %q does not carry the refutation", tv.Reason)
	}

	ext, err := f.rt.Load(so)
	if err != nil {
		t.Fatalf("load of demoted object: %v", err)
	}
	v := f.run(t, ext)
	if !v.Completed || v.R0 != 0 {
		t.Fatalf("demoted build must compute the correct wraparound 0, got %+v", v)
	}
	ps := f.rt.Core.Stats.Snapshot().Programs["mutant-e2e"]
	if ps.TVDemotions != 1 || !strings.Contains(ps.LastTVDemotionReason, "diverges") {
		t.Fatalf("stats did not surface the demotion: %+v", ps)
	}
}

// demotePressureProg keeps more values live than R6–R9 hold, across a loop,
// array traffic with a loop-invariant load, effectful map updates, an
// overflowing constant, a wide constant shift and a signed compare against
// a negative immediate, so most optimizer seams have something to
// miscompile.
const demotePressureProg = `
map m: hash<u32, u64>(64);

fn mix(a: i64, b: i64) -> i64 {
	let mut buf: [u8; 16];
	let c = a * 3 + b;
	let d = a ^ b;
	let e = a - b;
	let f = b << 2;
	let g = a | 5;
	let h = (1 << 63) + (1 << 63);
	kernel::map_set(m, 1, c);
	kernel::map_set(m, 1, d);
	let mut acc: i64 = 0;
	for i in 0..8 {
		buf[i] = c + i;
		acc += c * i + d - e + (f & i) + g + buf[i & 15] + buf[3] + (a << 40);
	}
	if e < 0 - 1 {
		acc += 1000;
	}
	return acc + c + d + e + f + g + h + kernel::map_get(m, 1);
}

fn main() -> i64 {
	return mix(17, 9);
}
`

// TestNoMutantShipsWrongResult closes the demotion path's trust gap. The
// demoted OptElide build shares the sweep, the register allocator and the
// emitter with the OptMIR build, so a broken seam there can reach the
// fallback too. Under every seeded mutant the toolchain must either refuse
// the build or ship an object computing the unmutated build's R0.
func TestNoMutantShipsWrongResult(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	runR0 := func(so *toolchain.SignedObject) int64 {
		t.Helper()
		ext, err := f.rt.Load(so)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		v := f.run(t, ext)
		if !v.Completed {
			t.Fatalf("run did not complete: %+v", v)
		}
		return v.R0
	}
	ref, err := f.signer.BuildAndSignOptimizedMIR("pressure", demotePressureProg)
	if err != nil {
		t.Fatalf("unmutated build: %v", err)
	}
	want := runR0(ref)

	for _, name := range mir.MutantNames() {
		t.Run(name, func(t *testing.T) {
			if !mir.SetMutant(name) {
				t.Fatalf("mutant %s unavailable", name)
			}
			defer mir.SetMutant("")
			so, err := f.signer.BuildAndSignOptimizedMIR("pressure-"+name, demotePressureProg)
			if err != nil {
				t.Logf("refused: %v", err)
				return
			}
			obj, err := toolchain.Deserialize(so.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if got := runR0(so); got != want {
				t.Fatalf("shipped level %d object (certificate %+v) returns R0 %d, unmutated build %d",
					obj.Opt.Level, obj.TVal, got, want)
			}
			t.Logf("shipped level %d, demoted %v", obj.Opt.Level, obj.TVal.Demoted)
		})
	}
}
