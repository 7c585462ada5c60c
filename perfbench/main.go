// Command perfbench is the repository's end-to-end benchmark: one command
// that runs a named workload over both extension stacks (verified eBPF and
// SLX) in the full production configuration, checks every output against
// a reference computed independently in Go, and prints every metric with
// its unit.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload dispatch-tiny --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the workload's request stream through the nested public entry
// points and reports the per-layer breakdown. The last line of standard
// output is {"correct", "attempted", "failed", "metrics"}; the line before
// it is the full report (host, seed, n, median and quartiles of every
// metric, wall or simulated). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"kex/internal/exec"
	"kex/internal/safext/toolchain"
)

// heldOutSeed is reserved for confirming claims: tune on other seeds,
// confirm on this one.
const heldOutSeed = 7919

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 7

// slicesPerLeg splits a data-plane leg's measuring time into interleaved
// slices; *_ops_per_s is the median slice.
const slicesPerLeg = 20

// endToEnd names the metrics of the --trace 0 result line, in
// BENCHMARK.json order.
var endToEnd = []string{
	"ebpf_ops_per_s", "slx_ops_per_s",
	"ebpf_batch_p50_us", "ebpf_batch_p99_us", "slx_batch_p50_us", "slx_batch_p99_us",
	"ebpf_load_ms", "slx_load_ms", "slx_code_insns",
	"setup_s", "peak_rss_mb",
}

var workloads = map[string]bool{"dispatch-tiny": true, "helper-loop": true, "load-corpus": true}

// outcome is one run's verdict and figures.
type outcome struct {
	attempted, failed uint64
	m                 metrics
}

func main() {
	workload := flag.String("workload", "", "dispatch-tiny, helper-loop or load-corpus")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1 reports the per-layer breakdown instead of end-to-end metrics")
	root := flag.String("root", "..", "repository root, for the source digest")
	flag.Parse()
	if !workloads[*workload] || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	goruntime.GOMAXPROCS(goruntime.NumCPU())
	start := time.Now()
	window := time.Duration(*seconds * float64(time.Second))

	var out outcome
	var err error
	if *trace == 1 {
		out, err = traceRun(*workload, *seed, window)
	} else {
		out, err = endToEndRun(*workload, *seed, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.m.exact("failed_frac", "ratio", "count", float64(out.failed)/float64(max(out.attempted, 1)))

	report := map[string]any{
		"workload":      *workload,
		"seed":          *seed,
		"held_out_seed": heldOutSeed,
		"trace":         *trace,
		"seconds":       *seconds,
		"elapsed_s":     time.Since(start).Seconds(),
		"host":          describeHost(*root),
		"metrics":       out.m,
	}
	result := map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayerNames()
	}
	short := make(map[string]any, len(names))
	for _, name := range names {
		m, ok := out.m[name]
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", name)
			os.Exit(1)
		}
		short[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	result["metrics"] = short
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(result); err != nil {
		os.Exit(1)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

// endToEndRun measures a workload untraced.
func endToEndRun(workload string, seed uint64, window time.Duration) (outcome, error) {
	shards := goruntime.GOMAXPROCS(0)
	var slxSet []slxProg
	var bpfSet []bpfProg
	var err error
	var setups []float64
	var signer *toolchain.Signer
	refInsns := -1
	var loops []*loop
	for i := 0; i < setupReps; i++ {
		for _, l := range loops {
			l.close()
		}
		loops = nil
		goruntime.GC() // every repetition starts from a collected heap, the last one's planes freed
		start := time.Now()
		if signer, err = toolchain.NewSigner(); err != nil {
			return outcome{}, err
		}
		if slxSet, bpfSet, err = programSet(workload); err != nil {
			return outcome{}, err
		}
		if workload != "load-corpus" {
			legs, err := dataLegs(workload, shards, signer, seed, true)
			if err != nil {
				return outcome{}, err
			}
			for _, lg := range legs {
				loops = append(loops, newLoop(lg, lg.planeShards(shards), exec.ConcStrict))
			}
		} else if refInsns, err = corpusReference(slxSet); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		for _, l := range loops {
			l.close()
		}
	}()

	out := outcome{m: metrics{}}
	out.m.median("setup_s", "s", "wall", setups)
	if workload == "load-corpus" {
		err = controlPlane(&out, signer, slxSet, bpfSet, window, refInsns, true)
	} else {
		// A tenth of the time loads the workload's own programs for the
		// *_load_ms metrics; the rest drives the data plane.
		if err = controlPlane(&out, signer, slxSet, bpfSet, window/10, -1, false); err == nil {
			err = dataPlane(&out, loops, window-window/10)
		}
	}
	if err != nil {
		return outcome{}, err
	}
	out.m.exact("peak_rss_mb", "MB", "memory", peakRSSMB())
	return out, nil
}

// dataPlane drives both legs' closed loops in interleaved slices after a
// warm-up, then checks the legs' aggregate state.
func dataPlane(out *outcome, loops []*loop, window time.Duration) error {
	warm := window / 10 / time.Duration(len(loops))
	slice := (window - window/10) / time.Duration(len(loops)*slicesPerLeg)
	for _, l := range loops {
		if err := l.run(warm, false); err != nil {
			return err
		}
	}
	for i := 0; i < slicesPerLeg; i++ {
		for _, l := range loops {
			if err := l.run(slice, true); err != nil {
				return err
			}
		}
	}
	for _, l := range loops {
		lg := l.lg
		out.attempted += l.completed()
		out.failed += l.failed()
		if err := lg.verify(lg.calls, lg.auxWant); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			out.failed++
		}
		lat := l.latencies()
		out.m.median(lg.stack+"_ops_per_s", "ops/s", "wall", l.sliceOps)
		out.m.sample(lg.stack+"_batch_p50_us", "us", "wall", percentile(lat, 0.50), lat)
		out.m.sample(lg.stack+"_batch_p99_us", "us", "wall", percentile(lat, 0.99), lat)
		out.m.exact(lg.stack+"_sim_ops_per_s", "ops/s", "simulated", l.simOpsPerSec())
	}
	return nil
}

// controlPlane makes interleaved SLX and eBPF passes over the program
// sets for the given time, after one warm-up pass each. A pass loads
// every program once. refInsns, when not negative, is the emitted SLX
// instruction total every pass must match; otherwise the first pass sets
// it. When the passes are the workload itself (load-corpus), an op is one
// program load and they also give the ops and batch metrics.
func controlPlane(out *outcome, signer *toolchain.Signer, slxSet []slxProg, bpfSet []bpfProg, window time.Duration, refInsns int, isWorkload bool) error {
	var slxPasses, bpfPasses []pass
	one := func() error {
		goruntime.GC() // start every pass from a collected heap
		sp, err := slxPass(signer, slxSet)
		out.attempted += uint64(len(sp.spansUs))
		if err != nil {
			return err
		}
		goruntime.GC()
		bp, err := bpfPass(bpfSet)
		out.attempted += uint64(len(bp.spansUs))
		if err != nil {
			return err
		}
		if refInsns < 0 {
			refInsns = sp.insns
		} else if sp.insns != refInsns {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: SLX build emitted %d insns, reference %d\n", sp.insns, refInsns)
		}
		slxPasses = append(slxPasses, sp)
		bpfPasses = append(bpfPasses, bp)
		return nil
	}
	if err := one(); err != nil { // warm-up
		return err
	}
	slxPasses, bpfPasses = nil, nil
	for deadline := time.Now().Add(window); len(slxPasses) < 5 || time.Now().Before(deadline); {
		if err := one(); err != nil {
			return err
		}
	}
	for _, leg := range []struct {
		name   string
		passes []pass
	}{{"slx", slxPasses}, {"ebpf", bpfPasses}} {
		var totals []float64
		for _, p := range leg.passes {
			totals = append(totals, p.totalUs/1e3)
		}
		out.m.median(leg.name+"_load_ms", "ms", "wall", totals)
		if !isWorkload {
			continue
		}
		var rates, spans []float64
		for _, p := range leg.passes {
			rates = append(rates, float64(len(p.spansUs))/(p.totalUs/1e6))
			spans = append(spans, p.spansUs...)
		}
		out.m.median(leg.name+"_ops_per_s", "ops/s", "wall", rates)
		out.m.sample(leg.name+"_batch_p50_us", "us", "wall", percentile(spans, 0.50), spans)
		out.m.sample(leg.name+"_batch_p99_us", "us", "wall", percentile(spans, 0.99), spans)
		out.m[leg.name+"_load_corpus_ms"] = out.m[leg.name+"_load_ms"]
	}
	out.m.exact("slx_code_insns", "insns", "count", float64(refInsns))
	return nil
}
