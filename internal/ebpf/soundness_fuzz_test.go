package ebpf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kex/internal/analysis/statecheck"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
	"kex/internal/kernel"
)

// FuzzVerifierSoundness drives the state-embedding checker with programs
// from the SAME progGen vocabulary as the acceptance fuzz: for every
// accepted program, every concrete state observed by the interpreter must
// be contained in the verifier's captured abstract state at that pc. The
// acceptance fuzz (fuzz_test.go) proves accepted programs don't damage
// the kernel; this one proves the verifier's *reasoning* about them was
// truthful. A violation is minimized and persisted under
// statecheck_witnesses/ so CI can upload the repro.

// soundnessMaps matches the map progGen references by name.
func soundnessMaps() []maps.Spec {
	return []maps.Spec{{Name: "fuzzmap", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 8}}
}

// soundnessProgram generates the seed's program via progGen.
func soundnessProgram(seed int64) statecheck.Program {
	s := NewStack(kernel.NewDefault())
	g := newProgGen(seed, s)
	steps := 4 + g.rng.Intn(20)
	for i := 0; i < steps; i++ {
		g.step()
	}
	return statecheck.Program{Name: "soundness_fuzz", Type: isa.Tracing, Insns: g.finish(), Maps: soundnessMaps()}
}

// soundnessCheckSeed runs one seed through the checker with the given
// verifier bug flags.
func soundnessCheckSeed(seed int64, bugs verifier.BugConfig) (*statecheck.Verdict, statecheck.Program, error) {
	p := soundnessProgram(seed)
	cfg := statecheck.Config{Verifier: verifier.DefaultConfig(), Seed: seed}
	cfg.Verifier.Bugs = bugs
	v, err := statecheck.Check(p, cfg)
	return v, p, err
}

func FuzzVerifierSoundness(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	// Known bug-convicting seeds (under reintroduced verifier bugs); sound
	// on the fixed verifier, but worth keeping in the corpus.
	f.Add(int64(2000))
	f.Add(int64(3662))
	f.Fuzz(func(t *testing.T, seed int64) {
		v, p, err := soundnessCheckSeed(seed, verifier.BugConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !v.Accepted {
			return // rejected programs carry no soundness claim
		}
		for _, w := range v.Witnesses {
			t.Errorf("seed %d: UNSOUNDNESS WITNESS: %v\nprog:\n%v", seed, w, p.Insns)
		}
		if len(v.Witnesses) > 0 {
			persistWitnesses(t, seed, p)
		}
	})
}

// persistWitnesses shrinks and saves the seed's findings so the CI
// artifact upload can collect them. The JSON shape matches
// bugcorpus.WitnessRepro so a saved file can be replayed with
// bugcorpus.LoadWitness (that package cannot be imported here: it
// depends on this one).
func persistWitnesses(t *testing.T, seed int64, p statecheck.Program) {
	cfg := statecheck.Config{Verifier: verifier.DefaultConfig(), Seed: seed, Shrink: true}
	v, err := statecheck.Check(p, cfg)
	if err != nil || len(v.Witnesses) == 0 {
		return
	}
	w := v.Witnesses[0]
	repro := struct {
		ID      string               `json:"id"`
		FoundBy string               `json:"found_by"`
		Bugs    verifier.BugConfig   `json:"bugs"`
		Insns   []isa.Instruction    `json:"insns"`
		Maps    []maps.Spec          `json:"maps,omitempty"`
		Runs    []statecheck.RunSpec `json:"runs,omitempty"`
		Seed    int64                `json:"seed,omitempty"`
		Reason  string               `json:"reason"`
	}{
		ID:      fmt.Sprintf("Wfuzz-seed-%d", seed),
		FoundBy: fmt.Sprintf("FuzzVerifierSoundness seed=%d", seed),
		Insns:   w.Insns,
		Maps:    p.Maps,
		Seed:    seed,
		Reason:  w.Reason,
	}
	if err := os.MkdirAll("statecheck_witnesses", 0o755); err != nil {
		t.Logf("failed to persist witness: %v", err)
		return
	}
	data, _ := json.MarshalIndent(repro, "", "  ")
	path := filepath.Join("statecheck_witnesses", repro.ID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Logf("failed to persist witness: %v", err)
		return
	}
	t.Logf("witness repro saved to %s", path)
}

// TestSoundnessFuzzSeedCorpusClean is the deterministic core of the CI
// smoke: the fuzz seed corpus must be witness-free on the fixed verifier.
func TestSoundnessFuzzSeedCorpusClean(t *testing.T) {
	accepted := 0
	for seed := int64(0); seed < 200; seed++ {
		v, p, err := soundnessCheckSeed(seed, verifier.BugConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !v.Accepted {
			continue
		}
		accepted++
		for _, w := range v.Witnesses {
			t.Errorf("seed %d: witness: %v\nprog:\n%v", seed, w, p.Insns)
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d/200 seeds accepted — generator too hostile to test soundness", accepted)
	}
}

// TestSoundnessALUEdgeOperands sweeps every ALU op at both widths, with
// an immediate and a register source, over edge operands: zero, one,
// sign and width boundaries, a dirty high half, and shift amounts at the
// width. Each program is "load operands; op; r0 = dst; exit", so every
// accepted one must be sound — the verifier's constant folding must
// compute what the engine executes, down to a 32-bit op reading only its
// operands' low halves.
func TestSoundnessALUEdgeOperands(t *testing.T) {
	edges := []uint64{0, 1, 3, ^uint64(0), 0x7fffffff, 0x80000000, 0xffffffff, 0x1_0000_0007, 63, 64}
	ops := []uint8{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpOr, isa.OpAnd, isa.OpLsh,
		isa.OpRsh, isa.OpNeg, isa.OpMod, isa.OpXor, isa.OpMov, isa.OpArsh, isa.OpEnd}
	cfg := statecheck.Config{Verifier: verifier.DefaultConfig(), Runs: statecheck.DefaultRuns(0)[:1]}
	accepted := 0
	for _, op := range ops {
		for _, class := range []uint8{isa.ClassALU, isa.ClassALU64} {
			for _, src := range []uint8{isa.SrcK, isa.SrcX} {
				for _, a := range edges {
					for _, b := range edges {
						ins := isa.Instruction{Op: class | op | src, Dst: isa.R1, Src: isa.R2, Imm: int32(uint32(b))}
						p := statecheck.Program{Name: "alu_edge", Type: isa.Tracing, Insns: []isa.Instruction{
							isa.LoadImm64(isa.R1, int64(a)),
							isa.LoadImm64(isa.R2, int64(b)),
							ins,
							isa.Mov64Reg(isa.R0, isa.R1),
							isa.Exit(),
						}}
						v, err := statecheck.Check(p, cfg)
						if err != nil {
							t.Fatalf("%v with r1=%#x r2=%#x: %v", ins, a, b, err)
						}
						if !v.Accepted {
							continue
						}
						accepted++
						for _, w := range v.Witnesses {
							t.Errorf("%v with r1=%#x r2=%#x: witness: %v", ins, a, b, w)
						}
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no edge program accepted — the sweep checks nothing")
	}
}

// TestSoundnessFuzzCatchesBrokenTnum proves the oracle has teeth: with the
// synthetic carry-dropping tnum add enabled, the same seed sweep the CI
// smoke runs must convict the verifier.
func TestSoundnessFuzzCatchesBrokenTnum(t *testing.T) {
	assertCaught(t, verifier.BugConfig{TnumAddNoCarry: true}, "TnumAddNoCarry")
}

// TestSoundnessFuzzCatchesJmp32Bug does the same for the reintroduced
// CVE-2021-31440-class 32-bit signed-bounds confusion.
func TestSoundnessFuzzCatchesJmp32Bug(t *testing.T) {
	assertCaught(t, verifier.BugConfig{Jmp32SignedBounds64: true}, "Jmp32SignedBounds64")
}

// assertCaught sweeps the deterministic seed range and requires at least
// one witness against the given broken verifier. The range is sized from
// measurement: the first convicting seeds are 2000 (TnumAddNoCarry) and
// 3662 (Jmp32SignedBounds64), so [0, 8000) gives 2x headroom while the
// sweep still finishes in roughly a second (it stops at the first catch).
func assertCaught(t *testing.T, bugs verifier.BugConfig, name string) {
	for seed := int64(0); seed < 8000; seed++ {
		v, p, err := soundnessCheckSeed(seed, bugs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v.Accepted && len(v.Witnesses) > 0 {
			t.Logf("seed %d convicts %s: %v (prog %d insns)", seed, name, v.Witnesses[0], len(p.Insns))
			return
		}
	}
	t.Fatalf("no seed in [0,8000) produced a witness against %s — the oracle is blind to it", name)
}

// TestMain leaves witness artifacts in place on failure but removes the
// directory when the whole package run passed, keeping local trees clean.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		os.RemoveAll("statecheck_witnesses")
	}
	os.Exit(code)
}
