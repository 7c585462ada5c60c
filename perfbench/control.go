package main

import (
	"fmt"
	"time"

	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/toolchain"
)

// The control plane: one pass builds and loads every program of a set on
// fresh stacks. Stack and runtime construction stay outside the timed
// spans; each span is one program's build-and-load.

// pass is one control-plane pass.
type pass struct {
	spansUs []float64 // per-program load latency
	totalUs float64
	insns   int // emitted instructions (SLX passes)
	// stagesUs sums the pipelines' own phase timings (SignedObject.Phases,
	// Extension.LoadPhases, Loaded.LoadPhases) per per-layer metric.
	stagesUs        map[string]float64
	vectors, elided int // TVAL vectors and elided checks (SLX passes)
}

// slxStages maps the SLX pipeline's phases to per-layer metrics.
var slxStages = map[string]string{
	"parse": "lang.parse_us", "typecheck": "lang.check_us", "analyze": "analyze.us",
	"compile": "compile.mir_us", "transval": "transval.us", "concheck": "concheck.us",
	"sign": "toolchain.sign_us", "validate": "runtime.load_us", "fixup": "runtime.load_us",
}

// bpfStages maps the eBPF loader's phases to per-layer metrics; the
// shard-safety analysis and relocation count only in ebpf_load_ms.
var bpfStages = map[string]string{
	"verify": "verifier.verify_us", "concheck": "", "relocate": "", "jit-compile": "jit.compile_us",
}

// addStages adds one load's phase timings to the pass.
func (p *pass) addStages(names map[string]string, phases exec.PhaseTimings) error {
	if p.stagesUs == nil {
		p.stagesUs = map[string]float64{}
	}
	for _, ph := range phases {
		metric, ok := names[ph.Name]
		if !ok {
			return fmt.Errorf("unmapped load phase %q", ph.Name)
		}
		if metric != "" {
			p.stagesUs[metric] += float64(ph.WallNs) / 1e3
		}
	}
	return nil
}

// slxPass runs source -> BuildAndSignOptimizedMIR -> Runtime.Load over set.
func slxPass(signer *toolchain.Signer, set []slxProg) (pass, error) {
	rt := newRuntime(kernel.NewDefault(), signer, true)
	var p pass
	objs := make([]*toolchain.SignedObject, 0, len(set))
	for _, prog := range set {
		start := time.Now()
		so, err := signer.BuildAndSignOptimizedMIR(prog.name, prog.src)
		if err != nil {
			return p, fmt.Errorf("build %s: %w", prog.name, err)
		}
		ext, err := rt.Load(so)
		if err != nil {
			return p, fmt.Errorf("load %s: %w", prog.name, err)
		}
		p.add(time.Since(start))
		phases := ext.LoadPhases
		ext.Close()
		if err := p.addStages(slxStages, phases); err != nil {
			return p, fmt.Errorf("%s: %w", prog.name, err)
		}
		objs = append(objs, so)
	}
	for _, so := range objs {
		obj, err := toolchain.Deserialize(so.Payload)
		if err != nil {
			return p, err
		}
		p.insns += len(obj.Insns)
		if obj.TVal != nil {
			p.vectors += obj.TVal.Vectors
		}
		p.elided += obj.Checks.Elided()
	}
	return p, nil
}

// bpfPass runs Stack.Load (verify, concheck, relocate, JIT) over set.
func bpfPass(set []bpfProg) (pass, error) {
	s, err := newStack(kernel.NewDefault(), set)
	if err != nil {
		return pass{}, err
	}
	var p pass
	for _, prog := range set {
		insns, err := prog.build(s.Helpers)
		if err != nil {
			return p, err
		}
		start := time.Now()
		l, err := s.Load(insns)
		if err != nil {
			return p, fmt.Errorf("load %s: %w", prog.name, err)
		}
		p.add(time.Since(start))
		l.Close()
		if err := p.addStages(bpfStages, l.LoadPhases); err != nil {
			return p, fmt.Errorf("%s: %w", prog.name, err)
		}
	}
	return p, nil
}

func (p *pass) add(d time.Duration) {
	us := float64(d.Nanoseconds()) / 1e3
	p.spansUs = append(p.spansUs, us)
	p.totalUs += us
}

// corpusReference builds every SLX program once and returns the emitted
// instruction total every later build must reproduce.
func corpusReference(set []slxProg) (int, error) {
	total := 0
	for _, prog := range set {
		obj, err := toolchain.BuildOptimizedMIR(prog.name, prog.src)
		if err != nil {
			return 0, fmt.Errorf("build %s: %w", prog.name, err)
		}
		total += len(obj.Insns)
	}
	return total, nil
}
