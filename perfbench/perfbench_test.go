package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/safext/toolchain"
)

// spin busy-waits for d: an injected delay that costs CPU like real work.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// slowEngine delays every Engine.Run.
type slowEngine struct {
	exec.Engine
	d time.Duration
}

func (e slowEngine) Run(env *helpers.Env, opts interp.Options) (uint64, error) {
	spin(e.d)
	return e.Engine.Run(env, opts)
}

// slowUpdates is a map-registry fault hook that admits every operation
// after a delay on each update; installing it wraps every registered map.
type slowUpdates struct{ d time.Duration }

func (h slowUpdates) MapAlloc(string) error  { return nil }
func (h slowUpdates) MapUpdate(string) error { spin(h.d); return nil }

// mapUpdater stores into a hash map on every invocation and returns the
// update's result, 0. Its one map operation is an Update, the path the
// registry's wrapping maps.Map runs through the fault hook.
var mapUpdater = bpfProg{
	name: "mapupdate",
	maps: []maps.Spec{{Name: "upd", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 4}},
	build: func(reg *helpers.Registry) (*isa.Program, error) {
		update, err := helperID(reg, "bpf_map_update_elem")
		if err != nil {
			return nil, err
		}
		return &isa.Program{Name: "mapupdate", Type: isa.Tracing, Insns: []isa.Instruction{
			isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
			isa.StoreImm(isa.SizeDW, isa.R10, -16, 1),
			isa.LoadMapRef(isa.R1, "upd"),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
			isa.Mov64Reg(isa.R3, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R3, -16),
			isa.Mov64Imm(isa.R4, 0),
			isa.Call(update),
			isa.Exit(),
		}}, nil
	},
}

// newTestBench builds dispatch-tiny's traced run on seed 1.
func newTestBench(t *testing.T) *traceBench {
	t.Helper()
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := newTraceBench("dispatch-tiny", signer, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// checkReplays fails the test if any replayed invocation missed the
// reference.
func checkReplays(t *testing.T, replays []*layered) {
	t.Helper()
	for _, r := range replays {
		if r.failed > 0 {
			t.Fatalf("%s: %d of %d replayed invocations missed the reference", r.lg.stack, r.failed, r.attempted)
		}
	}
}

// breakdown runs the traced data-plane replay of dispatch-tiny for d,
// after inject (if any) has modified the bench from outside.
func breakdown(t *testing.T, d time.Duration, inject func(*traceBench)) metrics {
	t.Helper()
	tb := newTestBench(t)
	defer tb.close()
	if inject != nil {
		inject(tb)
	}
	m := metrics{}
	if err := tb.dataPlaneLayers(m, time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	checkReplays(t, tb.replays)
	return m
}

// updateBreakdown replays mapUpdater on one shard through the levels for
// d, after inject (if any) has modified the leg from outside.
func updateBreakdown(t *testing.T, d time.Duration, inject func(*leg)) metrics {
	t.Helper()
	var legs [2]*leg
	for i, useJIT := range []bool{true, false} {
		lg, _, err := bpfLeg(1, mapUpdater, useJIT)
		if err != nil {
			t.Fatal(err)
		}
		lg.want = []uint64{0}
		lg.verify = func(uint64, uint64) error { return nil }
		defer lg.close()
		legs[i] = lg
	}
	r := newLayered(legs[0], legs[1])
	defer r.close()
	if inject != nil {
		inject(legs[0])
	}
	m := metrics{}
	if err := replayLayers(m, []*layered{r}, time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	checkReplays(t, []*layered{r})
	return m
}

// selfTimes are the nested levels' self times: what an injection below
// them must leave alone.
var selfTimes = []string{
	"ebpf.core.self_ns_per_op", "ebpf.supervisor.self_ns_per_op", "ebpf.sharded.self_ns_per_op", "ebpf.conc.self_ns_per_op",
	"slx.core.self_ns_per_op", "slx.supervisor.self_ns_per_op", "slx.sharded.self_ns_per_op", "slx.conc.self_ns_per_op",
}

// TestLayerAttribution injects a fixed delay at one boundary at a time,
// from outside the program, and checks that the breakdown charges it to
// that layer and to no other layer beyond the baseline's spread. The
// engine and helper injections run on dispatch-tiny; the map injection
// runs on mapUpdater, since dispatch-tiny's programs never call Update
// once warm and the registry's wrapper intercepts only updates.
func TestLayerAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const delay = 20 * time.Microsecond
	const replay = 1500 * time.Millisecond
	dispatch := func(inject func(*traceBench)) metrics { return breakdown(t, replay, inject) }
	updates := func(inject func(*leg)) metrics { return updateBreakdown(t, replay, inject) }
	var dispatchBase, updateBase []metrics
	for i := 0; i < 3; i++ {
		dispatchBase = append(dispatchBase, dispatch(nil))
		updateBase = append(updateBase, updates(nil))
	}
	// tolerance is how far a metric may drift without an injection: three
	// times the baseline's range, and never less than a tenth of the delay.
	tolerance := func(base []metrics, name string) (median, tol float64) {
		lo, hi := math.Inf(1), math.Inf(-1)
		var xs []float64
		for _, m := range base {
			v, ok := m[name]
			if !ok {
				t.Fatalf("baseline did not report %s", name)
			}
			lo, hi = math.Min(lo, v.Value), math.Max(hi, v.Value)
			xs = append(xs, v.Value)
		}
		return percentile(xs, 0.5), math.Max(3*(hi-lo), float64(delay.Nanoseconds())/10)
	}

	for _, tc := range []struct {
		name string
		run  func() metrics
		base []metrics
		// moved are the metrics the delay must raise by at least half of it;
		// still are the ones it must leave within tolerance.
		moved, still []string
	}{{
		name: "engine",
		run: func() metrics {
			return dispatch(func(tb *traceBench) {
				for _, r := range tb.replays {
					r.lg.engine = slowEngine{r.lg.engine, delay}
				}
			})
		},
		base:  dispatchBase,
		moved: []string{"ebpf.engine.jit.ns_per_op", "slx.engine.jit.ns_per_op"},
		still: append([]string{"ebpf.engine.interp.ns_per_op", "helpers.ns_per_call", "maps.hash.update_ns"}, selfTimes...),
	}, {
		name: "helper",
		run: func() metrics {
			return dispatch(func(tb *traceBench) {
				spec, _ := tb.ebpf().core.Helpers.ByName("bpf_map_lookup_elem")
				impl := spec.Impl
				spec.Impl = func(env *helpers.Env, args [5]uint64) (uint64, error) {
					spin(delay)
					return impl(env, args)
				}
			})
		},
		base:  dispatchBase,
		moved: []string{"helpers.ns_per_call", "ebpf.engine.jit.ns_per_op"},
		still: append([]string{"slx.engine.jit.ns_per_op", "maps.hash.update_ns", "maps.hash.lookup_ns"}, selfTimes...),
	}, {
		name: "map",
		run: func() metrics {
			return updates(func(lg *leg) { lg.core.Maps.SetFaultHook(slowUpdates{delay}) })
		},
		base:  updateBase,
		moved: []string{"ebpf.engine.jit.ns_per_op"},
		still: append([]string{"ebpf.engine.interp.ns_per_op"}, selfTimes[:4]...),
	}} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run()
			for _, name := range tc.moved {
				med, _ := tolerance(tc.base, name)
				if d := got[name].Value - med; d < float64(delay.Nanoseconds())/2 {
					t.Errorf("%s moved by %.0f ns, want at least %v", name, d, delay/2)
				}
			}
			for _, name := range tc.still {
				med, tol := tolerance(tc.base, name)
				if d := got[name].Value - med; math.Abs(d) > tol {
					t.Errorf("%s moved by %.0f ns, beyond its tolerance of %.0f ns", name, d, tol)
				}
			}
		})
	}
}

// TestOutermostSpanMatchesUntracedReplay holds the outermost level's
// per-batch spans against an independent clock: the same batches
// replayed through the same plane with no span per batch, timed as a
// whole, one untraced replay after each traced round. The two medians
// must agree within a quarter. The test also checks that the replay
// reports every data-plane per-layer metric.
func TestOutermostSpanMatchesUntracedReplay(t *testing.T) {
	tb := newTestBench(t)
	defer tb.close()
	done := make(chan []exec.BatchResult, 1)
	for _, r := range tb.replays {
		var untraced []float64
		for round := 0; round < 25; round++ {
			if err := r.round(); err != nil {
				t.Fatal(err)
			}
			batches := prepare(r.lg, r.pos, roundBatches, false)
			start := time.Now()
			for _, p := range batches {
				err := r.strict.Submit(0, exec.Batch{Engine: r.lg.engine, Reqs: p.reqs, Reload: r.lg.reload,
					Done: func(res []exec.BatchResult) { done <- res }})
				if err != nil {
					t.Fatal(err)
				}
				r.check(r.lg, p, <-done)
			}
			untraced = append(untraced, float64(time.Since(start).Nanoseconds())/float64(roundBatches*batchSize))
		}
		traced, plain := percentile(r.perOp[lvConc], 0.5), percentile(untraced, 0.5)
		if math.Abs(traced-plain) > plain/4 {
			t.Errorf("%s: outermost level %.0f ns/op traced, %.0f ns/op untraced", r.lg.stack, traced, plain)
		}
	}
	checkReplays(t, tb.replays)

	m := metrics{}
	if err := tb.dataPlaneLayers(m, time.Now()); err != nil {
		t.Fatal(err)
	}
	for _, name := range perLayerNames() {
		if _, ok := m[name]; !ok && !toolchainMetric(name) && !strings.HasSuffix(name, ".trace.overhead_pct") {
			t.Errorf("data-plane replay did not report %s", name)
		}
	}
}

// toolchainMetric reports whether a per-layer metric comes from the
// toolchain and loader timings rather than the data-plane replay.
func toolchainMetric(name string) bool {
	switch name {
	case "lang.parse_us", "lang.check_us", "analyze.us", "compile.mir_us", "transval.us",
		"concheck.us", "toolchain.sign_us", "transval.vectors", "analyze.checks_elided",
		"runtime.load_us", "verifier.verify_us", "jit.compile_us":
		return true
	}
	return false
}

// TestToolchainTimings checks that the control-plane passes report every
// toolchain and loader stage, each nonzero, and the traced run's
// overhead against its untraced loops.
func TestToolchainTimings(t *testing.T) {
	tb := newTestBench(t)
	defer tb.close()
	m := metrics{}
	if err := tb.measure(m, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if tb.failed > 0 {
		t.Fatalf("%d of %d untraced or control-plane operations failed", tb.failed, tb.attempted)
	}
	for _, name := range perLayerNames() {
		if !toolchainMetric(name) && !strings.HasSuffix(name, ".trace.overhead_pct") {
			continue
		}
		v, ok := m[name]
		if !ok {
			t.Errorf("traced run did not report %s", name)
		} else if v.Value == 0 {
			t.Errorf("%s is 0", name)
		}
	}
}

// TestChecksCatchWrongReference corrupts one expected R0 on each leg of
// both data-plane workloads, and one aggregate expectation, and checks
// that the closed loop counts the mismatches.
func TestChecksCatchWrongReference(t *testing.T) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	for _, workload := range []string{"dispatch-tiny", "helper-loop"} {
		legs, err := dataLegs(workload, 2, signer, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, lg := range legs {
			lg.want[0] ^= 1
			l := newLoop(lg, lg.planeShards(2), exec.ConcStrict)
			if err := l.run(200*time.Millisecond, true); err != nil {
				t.Fatal(err)
			}
			l.close()
			if l.failed() == 0 {
				t.Errorf("%s %s: a wrong reference R0 went unnoticed", workload, lg.stack)
			}
			if err := lg.verify(lg.calls, lg.auxWant); err != nil {
				t.Errorf("%s %s: aggregate check failed on healthy traffic: %v", workload, lg.stack, err)
			}
			if lg.aux != nil || lg.program == "pktfilter" {
				if err := lg.verify(lg.calls+1, lg.auxWant+1); err == nil {
					t.Errorf("%s %s: a wrong aggregate expectation went unnoticed", workload, lg.stack)
				}
			}
		}
	}
}

// TestQuantile pins the interpolation the report uses.
func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
