package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"time"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/toolchain"
)

// The traced run. Each leg's seeded request stream is replayed, on one
// shard, through five nested public entry points, with one span around
// each call:
//
//	engine     Engine.Run, the Env built outside the span
//	core       Core.RunBatch
//	supervisor Supervisor.RunBatch
//	sharded    Sharded (ConcOff): Submit to the Done callback
//	conc       Sharded (ConcStrict)
//
// A layer's self time is its level's median per-op time minus the median
// of the level below, so the self times add up to the outermost level.
// Allocation counts are runtime.MemStats deltas around each level's
// calls. Levels are interleaved in rounds so drift hits them alike.
//
// Tracing overhead compares the traced run with the untraced one: every
// invocation the rounds complete (all five levels and the interpreter
// twin) over the rounds' wall time, against the ops/s of the workload's
// untraced closed loop, run in the same process in the --trace 0
// configuration.

const (
	lvEngine = iota
	lvCore
	lvSupervisor
	lvSharded
	lvConc
	numLevels
)

var levelNames = [numLevels]string{"engine", "core", "supervisor", "sharded", "conc"}

// roundBatches is the number of batches each level replays per round.
const roundBatches = 16

// layered replays one leg through the nested levels.
type layered struct {
	lg, interp  *leg
	off, strict *exec.Sharded

	done    chan struct{}
	results []exec.BatchResult
	end     time.Time

	perOp             [numLevels][]float64 // ns per op, one sample per batch
	mallocs, bytes    [numLevels]uint64
	ops               [numLevels]uint64
	interpPerOp       []float64
	submitNs, spanNs  float64 // conc level: time inside Submit, whole span
	roundsNs          float64 // wall time of every round, for the traced rate
	insns, helperOps  uint64
	mapOps, reportOps uint64
	helperCalls       map[string]uint64
	failed, attempted uint64
	pos               int
}

func newLayered(lg, twin *leg) *layered {
	r := &layered{lg: lg, interp: twin, done: make(chan struct{}, 1), helperCalls: map[string]uint64{}}
	r.off = exec.NewSharded(lg.core, lg.sup, exec.ShardedConfig{Shards: 1, Conc: exec.ConcOff})
	r.strict = exec.NewSharded(lg.core, lg.sup, exec.ShardedConfig{Shards: 1, Conc: exec.ConcStrict})
	return r
}

func (r *layered) close() {
	r.off.Close()
	r.strict.Close()
}

// onDone is the sharded levels' Done callback.
func (r *layered) onDone(results []exec.BatchResult) {
	r.end = time.Now()
	r.results = results
	r.done <- struct{}{}
}

// prepared is one batch assembled ahead of its span. Engine-level
// batches also carry their Envs and result slots, so the span and the
// allocation count cover Engine.Run alone.
type prepared struct {
	calls []call
	reqs  []exec.Request
	envs  []*helpers.Env
	r0    []uint64
	errs  []error
}

// prepare assembles n batches from the leg's stream starting at pos.
func prepare(lg *leg, pos, n int, withEnv bool) []prepared {
	out := make([]prepared, n)
	for b := range out {
		p := prepared{calls: make([]call, batchSize), reqs: make([]exec.Request, batchSize)}
		for i := range p.calls {
			p.calls[i] = lg.newCall((pos + b*batchSize + i) % len(lg.want))
			p.reqs[i] = p.calls[i].req
		}
		if withEnv {
			k := lg.core.K
			p.r0, p.errs = make([]uint64, batchSize), make([]error, batchSize)
			for i := range p.reqs {
				env := helpers.NewEnv(k, k.NewContext(0), lg.core.Maps)
				env.CtxAddr = p.reqs[i].CtxAddr
				if p.reqs[i].Setup != nil {
					p.reqs[i].Setup(env)
				}
				p.envs = append(p.envs, env)
			}
		}
		out[b] = p
	}
	return out
}

// runEngine runs one prepared batch straight on the engine.
func runEngine(lg *leg, p prepared) time.Duration {
	start := time.Now()
	for i := range p.reqs {
		p.r0[i], p.errs[i] = lg.engine.Run(p.envs[i], interp.Options{Fuel: p.reqs[i].Fuel, WatchdogNs: p.reqs[i].WatchdogNs})
	}
	return time.Since(start)
}

// engineResults completes an engine-level batch as Core.Run would: the
// report, then the request's Finish hook.
func engineResults(p prepared) []exec.BatchResult {
	results := make([]exec.BatchResult, len(p.reqs))
	for i, env := range p.envs {
		rep := &exec.Report{R0: p.r0[i], Instructions: env.Ctx.Instructions, HelperCalls: env.HelperCalls, MapOps: env.MapOps}
		if p.reqs[i].Finish != nil {
			p.reqs[i].Finish(env, rep, p.errs[i])
		}
		results[i] = exec.BatchResult{Report: rep, Err: p.errs[i]}
	}
	return results
}

// submit runs one batch through a one-shard plane and waits for it.
func (r *layered) submit(sh *exec.Sharded, p prepared) (span, inSubmit time.Duration, _ []exec.BatchResult, _ error) {
	lg := r.lg
	start := time.Now()
	if err := sh.Submit(0, exec.Batch{Engine: lg.engine, Reqs: p.reqs, Reload: lg.reload, Done: r.onDone}); err != nil {
		return 0, 0, nil, err
	}
	inSubmit = time.Since(start)
	<-r.done
	return r.end.Sub(start), inSubmit, r.results, nil
}

// check holds a replayed batch against the reference.
func (r *layered) check(lg *leg, p prepared, results []exec.BatchResult) {
	for i := range results {
		r.attempted++
		if !lg.ok(&p.calls[i], results[i]) {
			r.failed++
		}
	}
}

// round replays roundBatches batches through every level, the
// interpreter, and the outermost level untraced.
func (r *layered) round() error {
	roundStart := time.Now()
	defer func() { r.roundsNs += float64(time.Since(roundStart).Nanoseconds()) }()
	lg := r.lg
	pos := r.pos
	r.pos = (r.pos + roundBatches*batchSize) % len(lg.want)
	var ms0, ms1 goruntime.MemStats
	for lv := 0; lv < numLevels; lv++ {
		batches := prepare(lg, pos, roundBatches, lv == lvEngine)
		all := make([][]exec.BatchResult, len(batches))
		goruntime.ReadMemStats(&ms0)
		for b, p := range batches {
			var span, inSubmit time.Duration
			var err error
			switch lv {
			case lvEngine:
				span = runEngine(lg, p)
			case lvCore:
				start := time.Now()
				all[b] = lg.core.RunBatch(lg.engine, 0, p.reqs)
				span = time.Since(start)
			case lvSupervisor:
				start := time.Now()
				all[b] = lg.sup.RunBatch(lg.engine, 0, p.reqs, lg.reload)
				span = time.Since(start)
			case lvSharded:
				span, _, all[b], err = r.submit(r.off, p)
			case lvConc:
				span, inSubmit, all[b], err = r.submit(r.strict, p)
				r.submitNs += float64(inSubmit)
				r.spanNs += float64(span)
			}
			if err != nil {
				return fmt.Errorf("%s %s level: %w", lg.stack, levelNames[lv], err)
			}
			r.perOp[lv] = append(r.perOp[lv], float64(span.Nanoseconds())/batchSize)
		}
		goruntime.ReadMemStats(&ms1)
		r.mallocs[lv] += ms1.Mallocs - ms0.Mallocs
		r.bytes[lv] += ms1.TotalAlloc - ms0.TotalAlloc
		r.ops[lv] += uint64(len(batches) * batchSize)
		for b, p := range batches {
			if lv == lvEngine {
				all[b] = engineResults(p)
			}
			r.check(lg, p, all[b])
			if lv == lvCore {
				for _, res := range all[b] {
					if rep := res.Report; rep != nil {
						r.reportOps++
						r.insns += rep.Instructions
						r.mapOps += rep.MapOps
						for name, n := range rep.HelperCalls {
							r.helperCalls[name] += n
							r.helperOps += n
						}
					}
				}
			}
		}
	}

	for _, p := range prepare(r.interp, pos, roundBatches, true) {
		span := runEngine(r.interp, p)
		r.interpPerOp = append(r.interpPerOp, float64(span.Nanoseconds())/batchSize)
		r.check(r.interp, p, engineResults(p))
	}
	return nil
}

// report adds the leg's per-layer metrics.
func (r *layered) report(m metrics) {
	p := r.lg.stack + "."
	var med [numLevels]float64
	var allocs, bytes [numLevels]float64
	for lv := range med {
		med[lv] = percentile(r.perOp[lv], 0.5)
		allocs[lv] = float64(r.mallocs[lv]) / float64(r.ops[lv])
		bytes[lv] = float64(r.bytes[lv]) / float64(r.ops[lv])
	}
	insns := float64(r.insns) / float64(r.reportOps)
	m.median(p+"engine.jit.ns_per_op", "ns", "wall", r.perOp[lvEngine])
	m.median(p+"engine.interp.ns_per_op", "ns", "wall", r.interpPerOp)
	m.exact(p+"engine.insns_per_op", "insns", "count", insns)
	m.exact(p+"engine.jit.ns_per_insn", "ns", "wall", med[lvEngine]/insns)
	m.exact(p+"engine.allocs_per_op", "allocs", "count", allocs[lvEngine])
	m.exact(p+"core.self_ns_per_op", "ns", "wall", med[lvCore]-med[lvEngine])
	m.exact(p+"core.allocs_per_op", "allocs", "count", allocs[lvCore]-allocs[lvEngine])
	m.exact(p+"core.bytes_per_op", "B", "memory", bytes[lvCore]-bytes[lvEngine])
	m.exact(p+"supervisor.self_ns_per_op", "ns", "wall", med[lvSupervisor]-med[lvCore])
	m.exact(p+"supervisor.allocs_per_op", "allocs", "count", allocs[lvSupervisor]-allocs[lvCore])
	m.exact(p+"sharded.self_ns_per_op", "ns", "wall", med[lvSharded]-med[lvSupervisor])
	m.exact(p+"sharded.allocs_per_op", "allocs", "count", allocs[lvSharded]-allocs[lvSupervisor])
	m.exact(p+"sharded.submit_wait_frac", "ratio", "wall", r.submitNs/r.spanNs)
	m.exact(p+"conc.self_ns_per_op", "ns", "wall", med[lvConc]-med[lvSharded])
	m.median(p+"total.ns_per_op", "ns", "wall", r.perOp[lvConc])
	m.exact(p+"helpers.calls_per_op", "calls", "count", float64(r.helperOps)/float64(r.reportOps))
	m.exact(p+"maps.ops_per_op", "ops", "count", float64(r.mapOps)/float64(r.reportOps))
	var transitions uint64
	for _, n := range r.lg.core.Stats.Snapshot().Programs[r.lg.program].Transitions {
		transitions += n
	}
	m.exact(p+"supervisor.transitions", "count", "count", float64(transitions))
	busy := r.strict.MaxBusyNs()
	m.exact(p+"sim_ops_per_s", "ops/s", "simulated", float64(r.strict.Completed())/(float64(busy)/1e9))
}

// perLayerNames lists the --trace 1 result line's metrics, in
// BENCHMARK.json order.
func perLayerNames() []string {
	var names []string
	for _, stack := range []string{"ebpf", "slx"} {
		for _, n := range []string{
			"sharded.self_ns_per_op", "sharded.allocs_per_op", "sharded.submit_wait_frac",
			"conc.self_ns_per_op",
			"supervisor.self_ns_per_op", "supervisor.allocs_per_op", "supervisor.transitions",
			"core.self_ns_per_op", "core.allocs_per_op", "core.bytes_per_op",
			"engine.jit.ns_per_op", "engine.interp.ns_per_op", "engine.insns_per_op",
			"engine.jit.ns_per_insn", "engine.allocs_per_op",
			"helpers.calls_per_op", "maps.ops_per_op",
			"total.ns_per_op", "sim_ops_per_s", "trace.overhead_pct",
		} {
			names = append(names, stack+"."+n)
		}
	}
	return append(names,
		"gc.cpu_frac",
		"helpers.ns_per_call", "helpers.byid_ns",
		"maps.percpu_array.lookup_ns", "maps.hash.lookup_ns", "maps.hash.update_ns",
		"lang.parse_us", "lang.check_us", "analyze.us", "compile.mir_us", "transval.us",
		"concheck.us", "toolchain.sign_us", "transval.vectors", "analyze.checks_elided",
		"runtime.load_us", "verifier.verify_us", "jit.compile_us",
	)
}

// traceRun measures the per-layer breakdown. load-corpus runs no data
// plane of its own; its data-plane layers are measured on the dispatch
// stream over the two data-plane programs it loads.
func traceRun(workload string, seed uint64, window time.Duration) (outcome, error) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		return outcome{}, err
	}
	tb, err := newTraceBench(workload, signer, seed)
	if err != nil {
		return outcome{}, err
	}
	defer tb.close()
	out := outcome{m: metrics{}}
	if err := tb.measure(out.m, time.Now().Add(window)); err != nil {
		return outcome{}, err
	}
	for _, r := range tb.replays {
		out.attempted += r.attempted
		out.failed += r.failed
		for _, lg := range []*leg{r.lg, r.interp} {
			if err := lg.verify(lg.calls, lg.auxWant); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				out.failed++
			}
		}
	}
	out.attempted += tb.attempted
	out.failed += tb.failed
	return out, nil
}

// traceBench is a traced run's state: both legs on the JIT with their
// interpreter twins, probe maps for the map timings, and the workload's
// program sets for the toolchain and loader timings.
type traceBench struct {
	workload          string
	replays           []*layered
	signer            *toolchain.Signer
	slxSet            []slxProg
	bpfSet            []bpfProg
	seed              uint64
	attempted, failed uint64 // untraced loops and control-plane loads
}

func newTraceBench(workload string, signer *toolchain.Signer, seed uint64) (*traceBench, error) {
	slxSet, bpfSet, err := programSet(workload)
	if err != nil {
		return nil, err
	}
	legs, err := dataLegs(workload, 1, signer, seed, true)
	if err != nil {
		return nil, err
	}
	twins, err := dataLegs(workload, 1, signer, seed, false)
	if err != nil {
		return nil, err
	}
	tb := &traceBench{workload: workload, signer: signer, slxSet: slxSet, bpfSet: bpfSet, seed: seed}
	for i := range legs {
		tb.replays = append(tb.replays, newLayered(legs[i], twins[i]))
	}
	if err := tb.createProbeMaps(); err != nil {
		tb.close()
		return nil, err
	}
	return tb, nil
}

func (tb *traceBench) close() {
	for _, r := range tb.replays {
		r.close()
		r.lg.close()
		r.interp.close()
	}
}

// ebpf is the eBPF leg, whose core hosts the probe maps.
func (tb *traceBench) ebpf() *leg { return tb.replays[0].lg }

// measure fills m with every per-layer metric: a tenth of the time goes
// to the untraced loops, half to the traced data plane, the rest to the
// toolchain and loaders.
func (tb *traceBench) measure(m metrics, deadline time.Time) error {
	left := time.Until(deadline)
	untraced, err := tb.untracedRates(left / 10)
	if err != nil {
		return err
	}
	if err := tb.dataPlaneLayers(m, time.Now().Add(left/2)); err != nil {
		return err
	}
	for _, r := range tb.replays {
		stack := r.lg.stack
		traced := float64(r.attempted) / (r.roundsNs / 1e9)
		m.exact(stack+".trace.traced_ops_per_s", "ops/s", "wall", traced)
		m.exact(stack+".trace.untraced_ops_per_s", "ops/s", "wall", untraced[stack])
		m.exact(stack+".trace.overhead_pct", "%", "wall", (untraced[stack]/traced-1)*100)
	}
	return tb.toolchainTimings(m, deadline)
}

// untracedRates drives the workload's legs untraced, as the --trace 0 run
// does (every shard, ConcStrict, the closed loop), for d and returns each
// leg's ops/s. Their outputs are checked like any other.
func (tb *traceBench) untracedRates(d time.Duration) (map[string]float64, error) {
	shards := goruntime.GOMAXPROCS(0)
	legs, err := dataLegs(tb.workload, shards, tb.signer, tb.seed, true)
	if err != nil {
		return nil, err
	}
	var loops []*loop
	for _, lg := range legs {
		loops = append(loops, newLoop(lg, lg.planeShards(shards), exec.ConcStrict))
	}
	defer func() {
		for _, l := range loops {
			l.close()
		}
	}()
	out := outcome{m: metrics{}}
	if err := dataPlane(&out, loops, d); err != nil {
		return nil, err
	}
	tb.attempted += out.attempted
	tb.failed += out.failed
	rates := map[string]float64{}
	for _, lg := range legs {
		rates[lg.stack] = out.m[lg.stack+"_ops_per_s"].Value
	}
	return rates, nil
}

// dataPlaneLayers replays both legs through the levels, then times the
// helpers and maps directly.
func (tb *traceBench) dataPlaneLayers(m metrics, deadline time.Time) error {
	if err := replayLayers(m, tb.replays, deadline); err != nil {
		return err
	}
	if err := tb.helperTimings(m); err != nil {
		return err
	}
	return tb.mapTimings(m)
}

// replayLayers replays the legs in rounds until the deadline (three rounds
// at least) and reports their breakdowns.
func replayLayers(m metrics, replays []*layered, deadline time.Time) error {
	gc0 := gcSample()
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for _, r := range replays {
			if err := r.round(); err != nil {
				return err
			}
		}
	}
	gc1 := gcSample()
	m.exact("gc.cpu_frac", "ratio", "wall", (gc1[0]-gc0[0])/(gc1[1]-gc0[1]))
	for _, r := range replays {
		r.report(m)
	}
	return nil
}

// gcSample reads cumulative GC and total CPU seconds.
func gcSample() [2]float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// Probe maps: the map layer timed directly through the eBPF leg's
// registry, in the data-plane workloads' shapes.
const (
	probePerCPU = "probe_percpu"
	probeHash   = "probe_hash"
)

// probeData is the probe hash's contents and its lookup keys, three in
// four of them cached.
type probeData struct {
	keys   [][]byte
	cached [][2][]byte
}

func (tb *traceBench) createProbeMaps() error {
	core := tb.ebpf().core
	if _, _, err := core.Maps.Create(core.K, maps.Spec{Name: probePerCPU, Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4}); err != nil {
		return err
	}
	h, _, err := core.Maps.Create(core.K, maps.Spec{Name: probeHash, Type: maps.Hash, KeySize: 8, ValueSize: 8, MaxEntries: streamLen})
	if err != nil {
		return err
	}
	for _, kv := range tb.probe().cached {
		if err := h.Update(0, kv[0], kv[1], maps.UpdateAny); err != nil {
			return err
		}
	}
	return nil
}

// probe generates the probe hash's contents and lookup keys from the seed.
func (tb *traceBench) probe() probeData {
	rng := rand.New(rand.NewPCG(tb.seed, 3))
	var d probeData
	for i := 0; i < 3*streamLen/4; i++ {
		kv := [2][]byte{le64(rng.Uint64()), le64(rng.Uint64())}
		d.cached = append(d.cached, kv)
	}
	for i := 0; i < streamLen; i++ {
		if rng.IntN(4) < 3 {
			d.keys = append(d.keys, d.cached[rng.IntN(len(d.cached))][0])
		} else {
			d.keys = append(d.keys, le64(rng.Uint64()))
		}
	}
	return d
}

// timeReps runs fn reps times over n iterations each and returns the
// median per-iteration time in ns.
func timeReps(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return percentile(per, 0.5)
}

func (tb *traceBench) mapTimings(m metrics) error {
	core := tb.ebpf().core
	pc, ok1 := core.Maps.ByName(probePerCPU)
	h, ok2 := core.Maps.ByName(probeHash)
	if !ok1 || !ok2 {
		return fmt.Errorf("probe maps missing")
	}
	d := tb.probe()
	key0 := make([]byte, 4)
	m.exact("maps.percpu_array.lookup_ns", "ns", "wall", timeReps(31, 1000, func(int) { pc.Lookup(0, key0) }))
	m.exact("maps.hash.lookup_ns", "ns", "wall", timeReps(31, 1000, func(i int) { h.Lookup(0, d.keys[i%len(d.keys)]) }))
	var uerr error
	m.exact("maps.hash.update_ns", "ns", "wall", timeReps(31, 1000, func(i int) {
		kv := d.cached[i%len(d.cached)]
		if err := h.Update(0, kv[0], kv[1], maps.UpdateAny); err != nil {
			uerr = err
		}
	}))
	return uerr
}

// helperTimings times the eBPF leg's helpers through Spec.Impl on a fresh
// Env, weighted by how often the leg's program calls each.
func (tb *traceBench) helperTimings(m metrics) error {
	lg := tb.ebpf()
	core := lg.core
	keyRegion := core.K.Mem.Map(8, kernel.ProtRW, "probe_key")
	defer core.K.Mem.Unmap(keyRegion)
	var weighted, byID, calls float64
	for name, n := range tb.replays[0].helperCalls {
		spec, ok := core.Helpers.ByName(name)
		if !ok {
			return fmt.Errorf("helper %s not registered", name)
		}
		var args [5]uint64
		switch name {
		case "bpf_ktime_get_ns":
		case "bpf_map_lookup_elem":
			pc, _ := core.Maps.ByName(probePerCPU)
			h, ok := core.Maps.Handle(pc)
			if !ok {
				return fmt.Errorf("probe map has no handle")
			}
			args[0], args[1] = h, keyRegion.Base
		default:
			return fmt.Errorf("no probe arguments for helper %s", name)
		}
		var herr error
		per := timeRepsEnv(core, func(env *helpers.Env) {
			if _, err := spec.Impl(env, args); err != nil {
				herr = err
			}
		})
		if herr != nil {
			return fmt.Errorf("helper %s: %w", name, herr)
		}
		id := spec.ID
		weighted += float64(n) * per
		byID += float64(n) * timeReps(31, 1000, func(int) { core.Helpers.ByID(id) })
		calls += float64(n)
	}
	if calls == 0 {
		return fmt.Errorf("eBPF leg called no helpers")
	}
	m.exact("helpers.ns_per_call", "ns", "wall", weighted/calls)
	m.exact("helpers.byid_ns", "ns", "wall", byID/calls)
	return nil
}

// timeRepsEnv times fn over a fresh Env per repetition.
func timeRepsEnv(core *exec.Core, fn func(env *helpers.Env)) float64 {
	per := make([]float64, 31)
	for r := range per {
		env := helpers.NewEnv(core.K, core.K.NewContext(0), core.Maps)
		start := time.Now()
		for i := 0; i < 1000; i++ {
			fn(env)
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / 1000
	}
	return percentile(per, 0.5)
}

// toolchainTimings makes interleaved SLX and eBPF control-plane passes
// over the workload's programs until the deadline (three passes at
// least) and reports, for each stage, the median per-pass total of the
// pipelines' own phase timings.
func (tb *traceBench) toolchainTimings(m metrics, deadline time.Time) error {
	var passes []pass
	refInsns := -1
	for len(passes) < 3 || time.Now().Before(deadline) {
		sp, err := slxPass(tb.signer, tb.slxSet)
		tb.attempted += uint64(len(sp.spansUs))
		if err != nil {
			return err
		}
		bp, err := bpfPass(tb.bpfSet)
		tb.attempted += uint64(len(bp.spansUs))
		if err != nil {
			return err
		}
		if refInsns < 0 {
			refInsns = sp.insns
		} else if sp.insns != refInsns {
			tb.failed++
			fmt.Fprintf(os.Stderr, "perfbench: SLX build emitted %d insns, first pass %d\n", sp.insns, refInsns)
		}
		for stage, us := range bp.stagesUs {
			sp.stagesUs[stage] += us
		}
		passes = append(passes, sp)
	}
	for _, stage := range []string{
		"lang.parse_us", "lang.check_us", "analyze.us", "compile.mir_us", "transval.us",
		"concheck.us", "toolchain.sign_us", "runtime.load_us", "verifier.verify_us", "jit.compile_us",
	} {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.stagesUs[stage])
		}
		m.median(stage, "us", "wall", xs)
	}
	last := passes[len(passes)-1]
	m.exact("transval.vectors", "vectors", "count", float64(last.vectors))
	m.exact("analyze.checks_elided", "checks", "count", float64(last.elided))
	return nil
}
