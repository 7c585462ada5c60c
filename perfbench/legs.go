package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"sync"

	"kex/examples/progs"
	"kex/internal/analysis/statecheck"
	"kex/internal/ebpf"
	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// Shape of the data-plane traffic, shared by every workload.
const (
	batchSize = 16   // requests per submitted batch
	window    = 4    // batches in flight per shard (closed loop)
	streamLen = 2048 // distinct seeded contexts; the request stream cycles over them
)

// bpfProg is one eBPF program with the maps it references.
type bpfProg struct {
	name  string
	maps  []maps.Spec
	build func(reg *helpers.Registry) (*isa.Program, error)
}

// slxProg is one SLX source.
type slxProg struct {
	name, src string
}

// helperID resolves a standard helper's call immediate.
func helperID(reg *helpers.Registry, name string) (int32, error) {
	spec, ok := reg.ByName(name)
	if !ok {
		return 0, fmt.Errorf("helper %s not registered", name)
	}
	return int32(spec.ID), nil
}

// pktFilter is experiment X4's verified packet filter: classify the
// context's protocol byte and count the invocation in a per-CPU array.
// R0 is 1 for TCP (protocol 6), else 0.
var pktFilter = bpfProg{
	name: "pktfilter",
	maps: []maps.Spec{{Name: "pkt", Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4}},
	build: func(reg *helpers.Registry) (*isa.Program, error) {
		lookup, err := helperID(reg, "bpf_map_lookup_elem")
		if err != nil {
			return nil, err
		}
		return &isa.Program{Name: "pktfilter", Type: isa.Tracing, Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
			isa.ALU64Imm(isa.OpAnd, isa.R6, 0xff),
			isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
			isa.LoadMapRef(isa.R1, "pkt"),
			isa.Call(lookup),
			isa.JmpImm(isa.OpJeq, isa.R0, 0, 3),
			isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
			isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
			isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R7),
			isa.Mov64Imm(isa.R0, 0),
			isa.JmpImm(isa.OpJne, isa.R6, 6, 1),
			isa.Mov64Imm(isa.R0, 1),
			isa.Exit(),
		}}, nil
	},
}

// helperLoopIters is the exec-core program's loop count; each pass calls
// the clock helper once and adds 3, so R0 is 3*helperLoopIters.
const helperLoopIters = 1000

// helperLoopBPF is the exec-core program on the verified stack.
var helperLoopBPF = bpfProg{
	name: "helperloop",
	build: func(reg *helpers.Registry) (*isa.Program, error) {
		ktime, err := helperID(reg, "bpf_ktime_get_ns")
		if err != nil {
			return nil, err
		}
		return &isa.Program{Name: "helperloop", Type: isa.Tracing, Insns: []isa.Instruction{
			isa.Mov64Imm(isa.R6, 0),
			isa.Mov64Imm(isa.R7, 0),
			isa.Call(ktime),
			isa.ALU64Imm(isa.OpAdd, isa.R7, 3),
			isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
			isa.JmpImm(isa.OpJlt, isa.R6, helperLoopIters, -4),
			isa.Mov64Reg(isa.R0, isa.R7),
			isa.Exit(),
		}}, nil
	},
}

// helperLoopSLX is the exec-core program in SLX.
var helperLoopSLX = slxProg{name: "helperloop", src: `
fn main() -> i64 {
	let mut x: i64 = 0;
	for i in 0..1000 {
		let t: i64 = kernel::ktime();
		x += t - t + 3;
	}
	return x;
}
`}

// kvcache is the SLX lookaside cache of examples/kvcache.
var kvcache = slxProg{name: "kvcache", src: progs.KVCache}

// slxCorpus is every shared example source, in name order.
func slxCorpus() []slxProg {
	names := make([]string, 0, len(progs.All))
	for name := range progs.All {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]slxProg, len(names))
	for i, name := range names {
		out[i] = slxProg{name: name, src: progs.All[name]}
	}
	return out
}

// bpfCorpus is every statecheck corpus program the verifier accepts, plus
// the two data-plane programs.
func bpfCorpus() ([]bpfProg, error) {
	var out []bpfProg
	for _, p := range statecheck.Corpus() {
		p := p
		prog := bpfProg{name: p.Name, maps: p.Maps, build: func(*helpers.Registry) (*isa.Program, error) {
			return &isa.Program{Name: p.Name, Type: p.Type, Insns: p.Insns}, nil
		}}
		s, err := newStack(kernel.NewDefault(), []bpfProg{prog})
		if err != nil {
			return nil, err
		}
		if l, err := load(s, prog); err == nil {
			l.Close()
			out = append(out, prog)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("no statecheck corpus program verifies")
	}
	return append(out, pktFilter, helperLoopBPF), nil
}

// newStack boots an eBPF stack in the benchmark's production
// configuration (JIT, load-time shard-safety analysis, supervised
// dispatch) and creates the maps the programs use.
func newStack(k *kernel.Kernel, progs []bpfProg) (*ebpf.Stack, error) {
	s := ebpf.NewStack(k)
	s.Conc = exec.ConcStrict
	s.Supervise(exec.DefaultSupervisorConfig())
	created := map[string]bool{}
	for _, p := range progs {
		for _, spec := range p.maps {
			if created[spec.Name] {
				continue
			}
			created[spec.Name] = true
			if _, err := s.CreateMap(spec); err != nil {
				return nil, fmt.Errorf("create map %s: %w", spec.Name, err)
			}
		}
	}
	return s, nil
}

// load builds p for the stack's helper registry and loads it.
func load(s *ebpf.Stack, p bpfProg) (*ebpf.Loaded, error) {
	prog, err := p.build(s.Helpers)
	if err != nil {
		return nil, err
	}
	return s.Load(prog)
}

// newRuntime boots an SLX runtime that trusts the signer, supervised.
func newRuntime(k *kernel.Kernel, signer *toolchain.Signer, useJIT bool) *runtime.Runtime {
	cfg := runtime.DefaultConfig()
	cfg.UseJIT = useJIT
	rt := runtime.New(k, cfg)
	rt.AddKey(signer.PublicKey())
	rt.Supervise(exec.DefaultSupervisorConfig())
	return rt
}

// newKernel boots a kernel with one simulated CPU per shard.
func newKernel(cpus int) *kernel.Kernel {
	cfg := kernel.DefaultConfig()
	cfg.NumCPU = cpus
	return kernel.New(cfg)
}

// leg is one extension stack's side of a data-plane workload: one loaded
// program on a supervised core, the seeded request stream, and the
// reference results computed from that stream in Go.
type leg struct {
	stack   string // "ebpf" or "slx"
	program string
	core    *exec.Core
	sup     *exec.Supervisor
	engine  exec.Engine
	reload  exec.Reload
	bpf     *ebpf.Loaded       // set on the eBPF leg
	ext     *runtime.Extension // set on the SLX leg

	// ctxs[i] is stream position i's context address (nil: the program's
	// default context); want[i] is its expected R0 and aux[i] its expected
	// contribution to the leg's aggregate counter.
	ctxs []uint64
	want []uint64
	aux  []uint64

	// calls and auxWant accumulate over every invocation the producer has
	// assembled; verify holds the leg's aggregate state against them.
	calls, auxWant uint64
	verify         func(calls, auxWant uint64) error

	close func()

	// maxShards caps the leg's plane (0: one shard per CPU).
	maxShards int

	// reportMismatch prints the leg's first mismatch to stderr.
	reportMismatch sync.Once
}

// call is one assembled invocation.
type call struct {
	req exec.Request
	slx *runtime.Prepared // nil on the eBPF leg
	pos int
}

// newCall assembles the invocation for stream position pos.
func (lg *leg) newCall(pos int) call {
	c := call{pos: pos}
	var ctx uint64
	if lg.ctxs != nil {
		ctx = lg.ctxs[pos]
	}
	if lg.ext != nil {
		c.slx = lg.ext.Prepare(runtime.RunOptions{CtxAddr: ctx})
		c.req = c.slx.Request()
	} else {
		c.req = lg.bpf.Request(ebpf.RunOptions{CtxAddr: ctx})
	}
	lg.calls++
	if lg.aux != nil {
		lg.auxWant += lg.aux[pos]
	}
	return c
}

// planeShards is the leg's shard count on a machine with cpus CPUs.
func (lg *leg) planeShards(cpus int) int {
	if lg.maxShards > 0 && lg.maxShards < cpus {
		return lg.maxShards
	}
	return cpus
}

// r0 converts one dispatch result into the program's R0.
func (c *call) r0(res exec.BatchResult) (uint64, error) {
	if c.slx == nil {
		if res.Err != nil {
			return 0, res.Err
		}
		return res.Report.R0, nil
	}
	v, err := c.slx.Finish(res.Report, res.Err)
	if err != nil {
		return 0, err
	}
	if !v.Completed {
		return 0, fmt.Errorf("slx invocation terminated: %s", v.Reason)
	}
	return uint64(v.R0), nil
}

// ok reports whether a dispatch result matches the reference.
func (lg *leg) ok(c *call, res exec.BatchResult) bool {
	r0, err := c.r0(res)
	if err == nil && r0 == lg.want[c.pos] {
		return true
	}
	lg.reportMismatch.Do(func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s stream position %d: R0 %#x, want %#x, err %v\n",
			lg.stack, lg.program, c.pos, r0, lg.want[c.pos], err)
	})
	return false
}

// bpfLeg loads p on a fresh stack; the caller adds the seeded stream.
func bpfLeg(cpus int, p bpfProg, useJIT bool) (*leg, *ebpf.Stack, error) {
	k := newKernel(cpus)
	s, err := newStack(k, []bpfProg{p})
	if err != nil {
		return nil, nil, err
	}
	s.UseJIT = useJIT
	l, err := load(s, p)
	if err != nil {
		return nil, nil, err
	}
	return &leg{
		stack: "ebpf", program: p.name, core: s.Core, sup: s.Supervisor(),
		engine: l.Engine(), reload: l.Reverify(), bpf: l, close: l.Close,
	}, s, nil
}

// slxLeg builds p at -opt 2 and loads it on a fresh runtime; the caller
// adds the seeded stream.
func slxLeg(cpus int, signer *toolchain.Signer, p slxProg, useJIT bool) (*leg, error) {
	rt := newRuntime(newKernel(cpus), signer, useJIT)
	so, err := signer.BuildAndSignOptimizedMIR(p.name, p.src)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", p.name, err)
	}
	ext, err := rt.Load(so)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", p.name, err)
	}
	return &leg{
		stack: "slx", program: p.name, core: rt.Core, sup: rt.Supervisor(),
		engine: ext.Engine(), reload: ext.Revalidate(), ext: ext, close: ext.Close,
	}, nil
}

// pktFilterLeg is dispatch-tiny's eBPF leg: seeded 64-byte contexts whose
// first byte is the protocol (half TCP), R0 = proto==6, and the per-CPU
// counters summed must equal the number of invocations.
func pktFilterLeg(cpus int, seed uint64, useJIT bool) (*leg, error) {
	lg, s, err := bpfLeg(cpus, pktFilter, useJIT)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	lg.ctxs = make([]uint64, streamLen)
	lg.want = make([]uint64, streamLen)
	for i := range lg.ctxs {
		r := s.K.Mem.Map(64, kernel.ProtRW, "bench_ctx")
		for j := range r.Data {
			r.Data[j] = byte(rng.Uint32())
		}
		switch n := rng.IntN(8); {
		case n < 4:
			r.Data[0] = 6
		case n < 7:
			r.Data[0] = 17
		}
		if r.Data[0] == 6 {
			lg.want[i] = 1
		}
		lg.ctxs[i] = r.Base
	}
	counters, ok := s.Maps.ByName("pkt")
	if !ok {
		return nil, errors.New("pkt map missing")
	}
	lg.verify = func(calls, _ uint64) error {
		vals, ok := counters.(maps.PerCPUMap).PerCPUValues(make([]byte, 4))
		if !ok {
			return errors.New("pkt counters unreadable")
		}
		var sum uint64
		for _, v := range vals {
			sum += v
		}
		if sum != calls {
			return fmt.Errorf("pktfilter per-CPU counters sum to %d, want %d invocations", sum, calls)
		}
		return nil
	}
	return lg, nil
}

// kvCacheLeg is dispatch-tiny's SLX leg: the cache is pre-filled from the
// seed, three in four requests ask for a cached key, R0 is the cached
// value mod 2^31 or -1, and the hit/miss statistics must match the stream.
func kvCacheLeg(cpus int, signer *toolchain.Signer, seed uint64, useJIT bool) (*leg, error) {
	lg, err := slxLeg(cpus, signer, kvcache, useJIT)
	if err != nil {
		return nil, err
	}
	k := lg.core.K
	rng := rand.New(rand.NewPCG(seed, 2))
	cached := make(map[uint64]uint64, 3*streamLen/4)
	keys := make([]uint64, 0, 3*streamLen/4)
	for len(keys) < 3*streamLen/4 {
		key := 1 + rng.Uint64N(1<<31-1)
		if _, dup := cached[key]; dup {
			continue
		}
		cached[key] = 1 + rng.Uint64N(1<<62)
		keys = append(keys, key)
	}
	cache := lg.ext.Map("cache")
	for _, key := range keys {
		if err := cache.Update(0, le64(key), le64(cached[key]), maps.UpdateAny); err != nil {
			return nil, fmt.Errorf("prefill cache: %w", err)
		}
	}
	lg.ctxs = make([]uint64, streamLen)
	lg.want = make([]uint64, streamLen)
	lg.aux = make([]uint64, streamLen)
	for i := range lg.ctxs {
		var key uint64
		if rng.IntN(4) < 3 {
			key = keys[rng.IntN(len(keys))]
		} else {
			for {
				key = 1 + rng.Uint64N(1<<31-1)
				if _, hit := cached[key]; !hit {
					break
				}
			}
		}
		skb := k.NewSKB(le64(key)[:4])
		ctx := k.Mem.Map(32, kernel.ProtRW, "bench_req")
		putLE(ctx.Data[0:8], skb.DataStart())
		putLE(ctx.Data[8:16], skb.DataEnd())
		lg.ctxs[i] = ctx.Base
		if v, hit := cached[key]; hit {
			lg.want[i] = v % (1 << 31)
			lg.aux[i] = 1
		} else {
			lg.want[i] = uint64(1<<64 - 1) // -1
		}
	}
	// The simulated kernel's SpinLock treats any contention as a deadlock
	// (LockDep.Acquire oopses when another context holds the lock), so two
	// shards contending on kvcache's sync section fail invocations, and the
	// supervisor then quarantines the program. CONC certifies the program
	// shard-safe because the section is lock-guarded. Until contended
	// acquisition spins instead of oopsing, this leg runs on one shard.
	lg.maxShards = 1
	stats := lg.ext.Map("stats")
	lg.verify = func(calls, hits uint64) error {
		got := func(idx byte) uint64 {
			addr, ok := stats.Lookup(0, []byte{idx, 0, 0, 0, 0, 0, 0, 0}) // SLX map keys are 8 bytes
			if !ok {
				return 0
			}
			// Lock-guarded values carry an 8-byte lock header.
			v, _ := k.Mem.LoadUint(addr+8, 8)
			return v
		}
		if h, m := got(1), got(2); h != hits || h+m != calls {
			return fmt.Errorf("kvcache stats: %d hits + %d misses, want %d hits of %d invocations", h, m, hits, calls)
		}
		return nil
	}
	return lg, nil
}

// helperLoopLeg is helper-loop's leg on either stack: R0 must be 3000.
func helperLoopLeg(stackName string, cpus int, signer *toolchain.Signer, useJIT bool) (*leg, error) {
	var lg *leg
	var err error
	if stackName == "ebpf" {
		lg, _, err = bpfLeg(cpus, helperLoopBPF, useJIT)
	} else {
		lg, err = slxLeg(cpus, signer, helperLoopSLX, useJIT)
	}
	if err != nil {
		return nil, err
	}
	lg.want = []uint64{3 * helperLoopIters}
	lg.verify = func(uint64, uint64) error { return nil }
	return lg, nil
}

// dataLegs builds a data-plane workload's two legs, eBPF first.
func dataLegs(workload string, cpus int, signer *toolchain.Signer, seed uint64, useJIT bool) ([]*leg, error) {
	var a, b *leg
	var err error
	switch workload {
	case "dispatch-tiny", "load-corpus":
		if a, err = pktFilterLeg(cpus, seed, useJIT); err == nil {
			b, err = kvCacheLeg(cpus, signer, seed, useJIT)
		}
	case "helper-loop":
		if a, err = helperLoopLeg("ebpf", cpus, signer, useJIT); err == nil {
			b, err = helperLoopLeg("slx", cpus, signer, useJIT)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	return []*leg{a, b}, nil
}

// programSet is what a workload loads: the control-plane side of it.
func programSet(workload string) ([]slxProg, []bpfProg, error) {
	switch workload {
	case "dispatch-tiny":
		return []slxProg{kvcache}, []bpfProg{pktFilter}, nil
	case "helper-loop":
		return []slxProg{helperLoopSLX}, []bpfProg{helperLoopBPF}, nil
	case "load-corpus":
		bpf, err := bpfCorpus()
		return slxCorpus(), bpf, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q", workload)
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	putLE(b, v)
	return b
}

func putLE(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}
