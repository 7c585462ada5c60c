package kexbench

import (
	stdruntime "runtime"
	"sort"
	"testing"
	"time"

	"kex/examples/progs"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// TestSLXOptWallOrdering pins the fix for the histogram/elided wall-time
// regression (a committed BENCH_slxopt.json once showed the elided build
// 1.5× slower than naive). The cause was methodology, not codegen — at
// ~20 benchmark iterations a single GC cycle landing inside one tier's
// timed loop inverts the comparison, and the elided tier also paid a
// per-invocation stats lookup for its own fuel-elision accounting.
//
// The guard measures the way the fix prescribes: tiers interleaved
// round-robin (so ambient noise hits all of them equally), one small batch
// per tier per round, and the median over rounds of each tier's per-round
// batch-time ratio to naive as the estimator. A ratio within one round
// cancels the drift that round shares; the median discards the rounds a GC
// cycle or a preemption lands in, which a minimum over a handful of batches
// did not on a loaded 2-vCPU host. Elided must never fall behind naive
// beyond a small tolerance, and the MIR build must beat naive outright.
func TestSLXOptWallOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard; skipped in -short runs")
	}
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	builders := []struct {
		tier  string
		build func(name, src string) (*toolchain.SignedObject, error)
	}{
		{"naive", signer.BuildAndSign},
		{"elided", signer.BuildAndSignOptimized},
		{"opt", signer.BuildAndSignOptimizedMIR},
	}
	exts := make([]*runtime.Extension, len(builders))
	for i, bl := range builders {
		so, err := bl.build("hist-"+bl.tier, progs.Histogram)
		if err != nil {
			t.Fatalf("%s: %v", bl.tier, err)
		}
		rt := runtime.New(kernel.NewDefault(), runtime.DefaultConfig())
		rt.AddKey(signer.PublicKey())
		ext, err := rt.Load(so)
		if err != nil {
			t.Fatalf("%s: %v", bl.tier, err)
		}
		defer ext.Close()
		exts[i] = ext
	}

	const (
		rounds     = 30
		batchIters = 20
	)
	// Warm up every tier once, then time interleaved batches.
	for _, ext := range exts {
		if v, err := ext.Run(runtime.RunOptions{}); err != nil || !v.Completed {
			t.Fatalf("warmup: %+v, %v", v, err)
		}
	}
	elidedRatio := make([]float64, rounds)
	optRatio := make([]float64, rounds)
	batch := make([]time.Duration, len(exts))
	for r := 0; r < rounds; r++ {
		for i, ext := range exts {
			stdruntime.GC()
			start := time.Now()
			for k := 0; k < batchIters; k++ {
				v, err := ext.Run(runtime.RunOptions{})
				if err != nil || !v.Completed {
					t.Fatalf("%s: %+v, %v", builders[i].tier, v, err)
				}
			}
			batch[i] = time.Since(start)
		}
		elidedRatio[r] = float64(batch[1]) / float64(batch[0])
		optRatio[r] = float64(batch[2]) / float64(batch[0])
	}
	elided, opt := median(elidedRatio), median(optRatio)
	t.Logf("median per-round batch wall vs naive over %d rounds: elided=%.3f opt=%.3f", rounds, elided, opt)
	// Elided must not regress past naive (10% tolerance for timer jitter).
	if elided > 1.10 {
		t.Errorf("elided build slower than naive: median ratio %.3f", elided)
	}
	// The optimizer's margin is wide; the MIR build must beat naive
	// outright.
	if opt >= 1 {
		t.Errorf("opt build not faster than naive: median ratio %.3f", opt)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}
