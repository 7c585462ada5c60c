package concheck

import (
	"fmt"
	"sort"
	"strings"

	"kex/internal/ebpf/isa"
	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// AnalyzeSLX classifies every map access site of a checked SLX program and
// returns the program's shard-safety report. The analysis runs over the
// naive MIR lowering — the same IR the optimizer and translation validator
// consume — so every source-level map operation exists exactly once, before
// redundant-load elimination can hide a get that the bytecode still
// semantically performs on other paths.
func AnalyzeSLX(checked *lang.Checked, specs []compile.MapSpec) (*compile.ConcReport, error) {
	a := &slxAnalyzer{
		funcs:     make(map[string]*mir.Func),
		specs:     make(map[string]compile.MapSpec),
		mapBit:    make(map[string]uint),
		sites:     make(map[siteKey]*siteInfo),
		summaries: make(map[summaryKey]absVal),
		inFlight:  make(map[summaryKey]bool),
		recorded:  make(map[recordKey]bool),
	}
	for i, s := range specs {
		a.specs[s.Name] = s
		if i < 64 {
			a.mapBit[s.Name] = uint(i)
		}
	}
	if len(specs) > 64 {
		return nil, fmt.Errorf("concheck: program declares %d maps; analyzer supports 64", len(specs))
	}
	for _, fn := range checked.File.Funcs {
		mf, err := mir.LowerFunc(fn, checked, nil)
		if err != nil {
			return nil, err
		}
		a.funcs[fn.Name] = mf
	}
	entry := a.funcs["main"]
	if entry == nil {
		return nil, fmt.Errorf("concheck: program has no main")
	}
	if _, err := a.analyzeFunc("main", nil, callCtx{}, 0, true); err != nil {
		return nil, err
	}
	return a.report(specs), nil
}

// absVal is the abstract value of one vreg: where its bits came from (key
// provenance) and which maps' reads taint it (lost-update dataflow).
type absVal struct {
	prov  Prov
	taint uint64 // bit i set: derives from a read of specs[i]
}

func (v absVal) join(o absVal) absVal {
	return absVal{prov: v.prov.Join(o.prov), taint: v.taint | o.taint}
}

// callCtx is the caller-side context a site inherits: locks held across the
// call and the control taint of the call site's block.
type callCtx struct {
	locks    map[string]uint64 // map name -> const lock key held
	ctrl     uint64            // control-taint mask
	hasLocks bool
}

func (c callCtx) withLocks(locks map[string]uint64, ctrl uint64) callCtx {
	out := callCtx{ctrl: ctrl}
	if len(locks) > 0 {
		out.locks = make(map[string]uint64, len(locks))
		for k, v := range locks {
			out.locks[k] = v
		}
		out.hasLocks = true
	}
	return out
}

const maxCallDepth = 64

// slxSiteOps maps SLX crate call names to their semantic site kinds.
var slxSiteOps = map[string]siteOp{
	"map_get": opRead, "map_set": opWrite, "map_del": opDelete,
	"map_inc": opAtomic, "emit": opEmit,
}

// summaryKey identifies one summary-mode function analysis: the callee and
// the rendered argument abstractions (absVal is a comparable value type, so
// the rendering is injective enough to never conflate distinct contexts).
type summaryKey struct {
	name string
	args string
}

type slxAnalyzer struct {
	funcs  map[string]*mir.Func
	specs  map[string]compile.MapSpec
	mapBit map[string]uint
	sites  map[siteKey]*siteInfo
	order  []*siteInfo
	// summaries memoizes summary-mode return abstractions. Without it the
	// value fixpoint re-descends into every callee once per pass, which is
	// exponential in call depth — a self-recursive function never finishes
	// (each of 64 depth levels multiplies by its ≥2 passes). inFlight marks
	// summaries being computed: a cycle (recursion) degrades to the fully
	// tainted unknown instead of descending to the depth cap.
	summaries map[summaryKey]absVal
	inFlight  map[summaryKey]bool
	// recorded marks record-mode descents already performed, keyed by
	// callee, argument abstractions and calling context. recordSite merges
	// are idempotent (sites dedupe by function and pc; evidence joins are
	// monotone), so a repeat visit under an identical context contributes
	// nothing — and skipping it is what keeps record mode linear where the
	// call graph is recursive (fib-style binary recursion would otherwise
	// fan out 2^depth descents before the depth cap).
	recorded map[recordKey]bool
}

// recordKey identifies one record-mode descent: callee, rendered argument
// abstractions, and the canonical rendering of the calling context.
type recordKey struct {
	name string
	args string
	ctx  string
}

func (a *slxAnalyzer) bit(m string) uint64 {
	if i, ok := a.mapBit[m]; ok {
		return uint64(1) << i
	}
	return 0
}

// analyzeFunc analyzes one function under one calling context: fixpoint the
// vreg abstract values, fixpoint the block-level lock/control state, then —
// in record mode only — register every map access site. Summary-mode
// descents (from the value fixpoint, where lock context is not yet known)
// must not record, or every callee site would appear once with an empty
// context and erase its guard evidence. Returns the function's return-value
// abstraction. Recursion compiles (the engine bounds frame depth at run
// time), so past the analyzer's own depth cap the call degrades to a fully
// tainted unknown instead of failing the build: the recursive body's sites
// were already recorded at shallower depths (sites dedupe by function and
// pc), and the all-ones taint keeps any value that escapes the cap
// conservatively windowed on every map.
func (a *slxAnalyzer) analyzeFunc(name string, args []absVal, ctx callCtx, depth int, record bool) (absVal, error) {
	if depth > maxCallDepth {
		return absVal{prov: unknownProv(), taint: ^uint64(0)}, nil
	}
	f := a.funcs[name]
	if f == nil {
		return absVal{}, fmt.Errorf("concheck: call to unknown function %s", name)
	}

	st := &funcState{
		a:     a,
		f:     f,
		vregs: make([]absVal, f.NumVRegs+1),
		arrs:  make([]uint64, len(f.Arrays)),
		args:  args,
		ctx:   ctx,
		depth: depth,
	}
	for i := range st.vregs {
		st.vregs[i] = absVal{prov: botProv()}
	}
	if err := st.fixpointValues(); err != nil {
		return absVal{}, err
	}
	if record {
		st.fixpointBlocks()
		if err := st.record(); err != nil {
			return absVal{}, err
		}
	}
	return st.returnVal(), nil
}

// funcState is one function × context analysis in flight.
type funcState struct {
	a     *slxAnalyzer
	f     *mir.Func
	vregs []absVal
	arrs  []uint64 // per-array content taint
	args  []absVal
	ctx   callCtx
	depth int

	// Block-entry states from fixpointBlocks.
	locksIn map[mir.BlockID]map[string]uint64
	ctrlIn  map[mir.BlockID]uint64
}

func (st *funcState) val(v mir.VReg) absVal {
	if v <= 0 || int(v) >= len(st.vregs) {
		return absVal{prov: botProv()}
	}
	return st.vregs[v]
}

// operandB resolves the B-side of an instruction (vreg or folded imm).
func (st *funcState) operandB(in *mir.Insn) absVal {
	if in.BIsImm {
		return absVal{prov: constProv(uint64(in.BImm))}
	}
	return st.val(in.B)
}

// argVal resolves one crate/user call argument.
func (st *funcState) argVal(ar *mir.Arg) absVal {
	switch {
	case ar.IsImm:
		return absVal{prov: constProv(uint64(ar.Imm))}
	case ar.Kind == lang.CrateInt, ar.Kind == lang.CrateSock:
		return st.val(ar.V)
	case ar.Kind == lang.CrateBuf:
		if ar.Arr >= 0 && ar.Arr < len(st.arrs) {
			return absVal{prov: unknownProv(), taint: st.arrs[ar.Arr]}
		}
	}
	return absVal{prov: unknownProv()}
}

// fixpointValues computes the per-vreg abstract values, flow-insensitively:
// a vreg's state is the join over all of its definitions. The lowering
// gives every expression temporary a fresh vreg, so only loop-carried
// variables actually join — and those converge to unknown, which is sound.
func (st *funcState) fixpointValues() error {
	for pass := 0; pass < 64; pass++ {
		changed := false
		set := func(dst mir.VReg, v absVal) {
			if dst <= 0 || int(dst) >= len(st.vregs) {
				return
			}
			nv := st.vregs[dst].join(v)
			if nv != st.vregs[dst] {
				st.vregs[dst] = nv
				changed = true
			}
		}
		for _, b := range st.f.Blocks {
			for i := range b.Insns {
				in := &b.Insns[i]
				switch in.Op {
				case mir.OpParam:
					v := absVal{prov: unknownProv()}
					if i := int(in.Imm); i >= 0 && i < len(st.args) {
						v = st.args[i]
					}
					set(in.Dst, v)
				case mir.OpConst:
					set(in.Dst, absVal{prov: constProv(uint64(in.Imm))})
				case mir.OpCopy:
					set(in.Dst, st.val(in.A))
				case mir.OpNeg:
					av := st.val(in.A)
					set(in.Dst, absVal{prov: transferBin(isa.OpSub, true, constProv(0), av.prov), taint: av.taint})
				case mir.OpBin:
					av, bv := st.val(in.A), st.operandB(in)
					if av.prov.kind == provBot || bv.prov.kind == provBot {
						continue // operand not yet defined (back edge)
					}
					set(in.Dst, absVal{prov: transferBin(in.Bin, true, av.prov, bv.prov), taint: av.taint | bv.taint})
				case mir.OpCmp:
					av, bv := st.val(in.A), st.operandB(in)
					set(in.Dst, absVal{prov: degrade(av.prov.Join(bv.prov)), taint: av.taint | bv.taint})
				case mir.OpArrLoad:
					var t uint64
					if in.Arr >= 0 && in.Arr < len(st.arrs) {
						t = st.arrs[in.Arr]
					}
					set(in.Dst, absVal{prov: unknownProv(), taint: t})
				case mir.OpArrStore:
					bv := st.operandB(in)
					if in.Arr >= 0 && in.Arr < len(st.arrs) {
						if st.arrs[in.Arr]|bv.taint != st.arrs[in.Arr] {
							st.arrs[in.Arr] |= bv.taint
							changed = true
						}
					}
				case mir.OpCallCrate:
					set(in.Dst, st.crateResult(in))
				case mir.OpCallUser:
					ret, err := st.userCall(in)
					if err != nil {
						return err
					}
					set(in.Dst, ret)
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return nil // lattice is finite; extra passes only lose precision, never soundness
}

// crateResult abstracts one crate call's result.
func (st *funcState) crateResult(in *mir.Insn) absVal {
	if len(in.Args) > 0 && in.Args[0].Kind == lang.CrateMap {
		sym := in.Args[0].Sym
		switch in.Name {
		case "map_get", "map_inc":
			// The value read from (or the post-increment value of) map sym:
			// writing it back opens the window.
			return absVal{prov: unknownProv(), taint: st.a.bit(sym)}
		}
		return absVal{prov: unknownProv()}
	}
	if in.Name == "cpu" {
		return absVal{prov: cpuProv()}
	}
	if ctxSources[in.Name] {
		v := absVal{prov: ctxProv()}
		for i := range in.Args {
			v.taint |= st.argVal(&in.Args[i]).taint
		}
		return v
	}
	v := absVal{prov: unknownProv()}
	for i := range in.Args {
		v.taint |= st.argVal(&in.Args[i]).taint
	}
	return v
}

// userCall descends into a callee for its return abstraction only (summary
// mode): the calling context does not affect return values, and sites are
// not recorded here.
func (st *funcState) userCall(in *mir.Insn) (absVal, error) {
	args := make([]absVal, len(in.Args))
	for i := range in.Args {
		args[i] = st.argVal(&in.Args[i])
	}
	key := summaryKey{name: in.Name, args: fmt.Sprint(args)}
	if v, ok := st.a.summaries[key]; ok {
		return v, nil
	}
	if st.a.inFlight[key] {
		// Recursive cycle: the callee's summary depends on itself. Degrade
		// to the fully tainted unknown — same sound over-approximation as
		// the depth cap, reached without the exponential descent.
		return absVal{prov: unknownProv(), taint: ^uint64(0)}, nil
	}
	st.a.inFlight[key] = true
	v, err := st.a.analyzeFunc(in.Name, args, callCtx{}, st.depth+1, false)
	delete(st.a.inFlight, key)
	if err != nil {
		return absVal{}, err
	}
	st.a.summaries[key] = v
	return v, nil
}

// fixpointBlocks computes per-block-entry lock sets (forward, intersection
// at merges — a lock counts only when held on every path) and control
// taint (forward, union — a block downstream of a branch on map-derived
// data is control-dependent on that read, the check-then-act pattern).
func (st *funcState) fixpointBlocks() {
	st.locksIn = make(map[mir.BlockID]map[string]uint64)
	st.ctrlIn = make(map[mir.BlockID]uint64)
	if len(st.f.Blocks) == 0 {
		return
	}
	entry := st.f.Blocks[0].ID
	st.locksIn[entry] = copyLocks(st.ctx.locks)
	st.ctrlIn[entry] = st.ctx.ctrl
	seen := map[mir.BlockID]bool{entry: true}

	for pass := 0; pass < 64; pass++ {
		changed := false
		for _, b := range st.f.Blocks {
			if !seen[b.ID] {
				continue
			}
			locks := copyLocks(st.locksIn[b.ID])
			ctrl := st.ctrlIn[b.ID]
			for i := range b.Insns {
				in := &b.Insns[i]
				if in.Op != mir.OpCallCrate || len(in.Args) == 0 || in.Args[0].Kind != lang.CrateMap {
					continue
				}
				sym := in.Args[0].Sym
				switch in.Name {
				case "lock_acquire":
					if len(in.Args) > 1 {
						if c, ok := st.argVal(&in.Args[1]).prov.IsConst(); ok {
							if locks == nil {
								locks = make(map[string]uint64)
							}
							locks[sym] = c
							continue
						}
					}
					// Non-constant lock key: shards may take different
					// cells, so the section proves no mutual exclusion.
					delete(locks, sym)
				case "lock_release":
					delete(locks, sym)
				}
			}
			t := &b.Term
			if t.Kind == mir.TermCond {
				ctrl |= st.val(t.A).taint
				if !t.BIsImm {
					ctrl |= st.val(t.B).taint
				}
			}
			for _, succ := range t.Succs() {
				if !seen[succ] {
					seen[succ] = true
					st.locksIn[succ] = copyLocks(locks)
					st.ctrlIn[succ] = ctrl
					changed = true
					continue
				}
				if intersectLocks(st.locksIn[succ], locks) {
					changed = true
				}
				if st.ctrlIn[succ]|ctrl != st.ctrlIn[succ] {
					st.ctrlIn[succ] |= ctrl
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

func copyLocks(m map[string]uint64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// intersectLocks narrows dst to locks also in src (same cell); reports change.
func intersectLocks(dst, src map[string]uint64) bool {
	changed := false
	for k, v := range dst {
		if sv, ok := src[k]; !ok || sv != v {
			delete(dst, k)
			changed = true
		}
	}
	return changed
}

// record walks the function once with converged states and registers every
// map access site (descending into callees with block-accurate context).
func (st *funcState) record() error {
	pc := 0
	for _, b := range st.f.Blocks {
		locks := copyLocks(st.locksIn[b.ID])
		ctrl := st.ctrlIn[b.ID]
		reachable := st.locksIn[b.ID] != nil || b.ID == st.f.Blocks[0].ID || st.ctrlInSeen(b.ID)
		for i := range b.Insns {
			in := &b.Insns[i]
			pc++
			if in.Op == mir.OpCallUser {
				if !reachable {
					continue
				}
				ctx := st.ctx.withLocks(locks, ctrl)
				if _, err := st.userCallInCtx(in, ctx); err != nil {
					return err
				}
				continue
			}
			if in.Op != mir.OpCallCrate || len(in.Args) == 0 || in.Args[0].Kind != lang.CrateMap {
				continue
			}
			sym := in.Args[0].Sym
			switch in.Name {
			case "lock_acquire":
				if len(in.Args) > 1 {
					if c, ok := st.argVal(&in.Args[1]).prov.IsConst(); ok {
						if locks == nil {
							locks = make(map[string]uint64)
						}
						locks[sym] = c
						continue
					}
				}
				delete(locks, sym)
				continue
			case "lock_release":
				delete(locks, sym)
				continue
			case "map_get", "map_set", "map_del", "map_inc", "emit":
				if !reachable {
					continue
				}
				st.recordSite(in, pc, sym, locks, ctrl)
			}
		}
		pc++ // terminator
	}
	return nil
}

func (st *funcState) ctrlInSeen(id mir.BlockID) bool {
	_, ok := st.ctrlIn[id]
	return ok
}

func (st *funcState) userCallInCtx(in *mir.Insn, ctx callCtx) (absVal, error) {
	args := make([]absVal, len(in.Args))
	for i := range in.Args {
		args[i] = st.argVal(&in.Args[i])
	}
	rk := recordKey{name: in.Name, args: fmt.Sprint(args), ctx: renderCtx(ctx)}
	if st.a.recorded[rk] {
		return absVal{}, nil // identical visit already merged its evidence
	}
	st.a.recorded[rk] = true
	return st.a.analyzeFunc(in.Name, args, ctx, st.depth+1, true)
}

// renderCtx canonicalizes a calling context for recordKey: lock entries in
// sorted key order plus the control-taint mask.
func renderCtx(ctx callCtx) string {
	if !ctx.hasLocks && ctx.ctrl == 0 {
		return ""
	}
	keys := make([]string, 0, len(ctx.locks))
	for k := range ctx.locks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d;", k, ctx.locks[k])
	}
	fmt.Fprintf(&sb, "|%d", ctx.ctrl)
	return sb.String()
}

// recordSite merges one visit's evidence into the site's accumulator.
func (st *funcState) recordSite(in *mir.Insn, pc int, sym string, locks map[string]uint64, ctrl uint64) {
	key := siteKey{fn: st.f.Name, pc: pc}
	s := st.a.sites[key]
	if s == nil {
		s = &siteInfo{key: key, mapName: sym, sop: slxSiteOps[in.Name], op: in.Name, line: in.Line,
			keyProv: botProv(), lockedAll: true, lockConsistent: true, ord: len(st.a.order)}
		st.a.sites[key] = s
		st.a.order = append(st.a.order, s)
	}

	var keyProv Prov
	if len(in.Args) > 1 && in.Name != "emit" {
		keyProv = st.argVal(&in.Args[1]).prov
	} else {
		keyProv = unknownProv()
	}
	s.keyProv = s.keyProv.Join(keyProv)

	switch in.Name {
	case "map_set":
		if len(in.Args) > 2 {
			s.vTaint |= st.argVal(&in.Args[2]).taint
		}
		s.vTaint |= ctrl
	case "map_del":
		// A delete is blind unless control-dependent on a read of the same
		// map (check-then-act) — the racy map_delete pattern.
		s.vTaint |= ctrl
	case "map_inc":
		// Atomic fetch-add: never a window by itself, but its key matters
		// for the cpu-keyed proof, handled in classification.
	}

	lockKey, locked := uint64(0), false
	if locks != nil {
		lockKey, locked = locks[sym]
	}
	if !locked {
		s.lockedAll = false
	} else if s.visited && (!s.lockedAll || s.lockKey != lockKey) {
		s.lockConsistent = s.lockConsistent && s.lockKey == lockKey
	} else if !s.visited {
		s.lockKey = lockKey
	}
	s.visited = true
}

// returnVal joins the abstractions of every return site.
func (st *funcState) returnVal() absVal {
	out := absVal{prov: botProv()}
	for _, b := range st.f.Blocks {
		t := &b.Term
		if t.Kind != mir.TermRet {
			continue
		}
		if t.RetIsImm {
			out = out.join(absVal{prov: constProv(uint64(t.RetImm))})
		} else {
			out = out.join(st.val(t.Ret))
		}
	}
	if out.prov.kind == provBot {
		out.prov = unknownProv()
	}
	return out
}

// ---- classification ---------------------------------------------------------

// slxKeyBits returns the installed key width of an SLX map kind: the
// runtime installs array (and percpu array) maps with 4-byte keys,
// everything else keys on the full 64-bit scalar.
func slxKeyBits(kind string) uint {
	if kind == "array" || kind == "percpu" {
		return 32
	}
	return 64
}

// report classifies the accumulated sites and assembles the program report
// through the shared classifier.
func (a *slxAnalyzer) report(specs []compile.MapSpec) *compile.ConcReport {
	rep := &compile.ConcReport{Verdict: compile.VerdictShardSafe}
	if len(specs) == 0 {
		return rep
	}

	byMap := make(map[string][]*siteInfo)
	for _, s := range a.order {
		byMap[s.mapName] = append(byMap[s.mapName], s)
	}
	for _, spec := range specs {
		sites := byMap[spec.Name]
		sort.Slice(sites, func(i, j int) bool { return sites[i].ord < sites[j].ord })
		info := mapInfo{
			Name:    spec.Name,
			Kind:    spec.Kind,
			KeyBits: slxKeyBits(spec.Kind),
			Bit:     a.bit(spec.Name),
			PerCPU:  spec.Kind == "percpu" || spec.Kind == "percpu_hash",
		}
		rep.Merge(classifyMap(info, sites))
	}
	return rep
}
