package pin

import (
	"time"

	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/sa"
)

// CostModel holds the engine's calibrated per-operation cycle costs. The
// defaults reproduce the overhead structure the paper reports: a plain
// per-instruction InsertCall (icount1) costs about 10 extra cycles per
// instruction — a ~12X slowdown once dispatch and compilation are added —
// while a per-basic-block call (icount2) amortizes the same cost over the
// block.
type CostModel struct {
	// CompilePerIns is the JIT cost per compiled instruction.
	CompilePerIns kernel.Cycles
	// Dispatch is the cost of one code-cache dispatch (trace lookup and
	// entry).
	Dispatch kernel.Cycles
	// Exec is the cost of executing one translated guest instruction.
	Exec kernel.Cycles
	// Call is the cost of a plain analysis call, including the register
	// save/restore sequence Pin generates around it.
	Call kernel.Cycles
	// IfCall is the cost of an inlined InsertIfCall predicate.
	IfCall kernel.Cycles
	// ThenCall is the cost of an InsertThenCall routine when its
	// predicate fires.
	ThenCall kernel.Cycles
	// WeavePerIns is the per-instruction cost of instrumenting a
	// translation obtained from a shared trace cache (the translation
	// itself was paid for once by whoever built it).
	WeavePerIns kernel.Cycles
	// SharedCheck is the per-dispatch consistency-check surcharge paid
	// when a shared trace cache is attached (paper Section 8: "a little
	// extra overhead by performing extra consistency checks").
	SharedCheck kernel.Cycles
	// MemSurcharge is an extra cost per memory instruction, modeling the
	// cache behavior of the instrumented run (per-benchmark; see
	// internal/workload). Zero for most benchmarks.
	MemSurcharge kernel.Cycles
	// CacheCapacity is the code-cache capacity in compiled instructions
	// (<= 0 for unlimited). Applications whose footprint exceeds it
	// trigger whole-cache flushes and recompilation.
	CacheCapacity int

	// NoFastPath disables the engine's host-side dispatch fast paths
	// (trace linking and batched superblock execution), forcing the
	// per-instruction reference loop. Virtual-cycle results are
	// byte-identical either way — the fast paths change what the host
	// pays, never what the guest is charged — so the flag exists for
	// differential testing and benchmarking, not for correctness. It
	// rides in the cost model (despite not being a cost) because the
	// cost model is the one knob plumbed to every engine a run creates,
	// including the per-slice engines SuperPin forks.
	NoFastPath bool

	// NoSA disables the load-time static-analysis pass (internal/sa):
	// no verifier, no liveness-guided predicate save/restore elision,
	// no shared predecode for superblock sealing. Like NoFastPath it is
	// host-side only — virtual results are byte-identical either way
	// (`spbench -exp sadiff` proves it) — and rides in the cost model
	// for the same plumbing reason.
	NoSA bool

	// NoHotTier disables the second-tier trace compiler: no promotion of
	// hot traces, so no profile-guided hot-successor links, no
	// register-cached superblock execution and no predicate-spill
	// hoisting. The hot tier rides on the superblock machinery, so it is
	// also off whenever NoFastPath is set. Host-side only — virtual
	// results are byte-identical either way (`spbench -exp jitdiff`
	// proves it) — and rides in the cost model for the same plumbing
	// reason as the other two escape hatches.
	NoHotTier bool

	// HotThreshold is the per-trace dispatch count that triggers
	// promotion to the second tier (<= 0 means DefaultHotThreshold).
	// Host-side only: promotion is a pure function of the virtual
	// execution, so any value yields byte-identical virtual results.
	HotThreshold int
}

// DefaultCost returns the calibrated default engine cost model.
func DefaultCost() CostModel {
	return CostModel{
		CompilePerIns: 60,
		Dispatch:      3,
		Exec:          1,
		Call:          10,
		IfCall:        2,
		ThenCall:      12,
		WeavePerIns:   15,
		SharedCheck:   1,
		CacheCapacity: 32768,
	}
}

// Stats are cumulative engine execution statistics. SuperblockIns counts
// the subset of ExecIns executed through the batched superblock fast
// path (zero when the fast path is disabled or every instruction is
// instrumented).
//
// PredSaveRegs, SASharedRuns and SAPrivateRuns are host-side counters
// like SuperblockIns: PredSaveRegs counts registers saved and restored
// around inlined if/then predicates (the static-analysis liveness masks
// shrink it), and SASharedRuns/SAPrivateRuns count superblock runs
// sealed over the analysis's shared load-time predecode versus runs that
// fell back to a private copy (stale against current guest memory). Both
// stay zero when no analysis is attached. None of them affect
// virtual-cycle results.
// HotPromotions, HotIns, HoistedSaves and HotLinkHits are the hot tier's
// host-side counters: traces promoted to the second tier, instructions
// executed through register-cached superblocks (a subset of
// SuperblockIns), inlined-predicate spills suppressed by the
// dominator/loop hoisting, and dispatches resolved through a promoted
// trace's hot-successor link. All zero with the hot tier disabled; none
// affect virtual-cycle results.
//
// WarmPromotions counts the subset of HotPromotions triggered at compile
// time by the artifact cache's warm-start seed rather than earned
// through this run's own dispatch counting. FirstPromoDispatch records
// the Dispatches value at the first promotion (zero when nothing
// promoted) — the time-to-first-promotion measurement the warm-start
// experiment reports. Host-side like the rest.
type Stats struct {
	ExecIns       uint64
	AnalysisCalls uint64
	IfCalls       uint64
	ThenCalls     uint64
	Dispatches    uint64
	SuperblockIns uint64
	PredSaveRegs  uint64
	SASharedRuns  uint64
	SAPrivateRuns uint64
	HotPromotions uint64
	HotIns        uint64
	HoistedSaves  uint64
	HotLinkHits   uint64

	WarmPromotions     uint64
	FirstPromoDispatch uint64
}

// SyscallFilter lets a wrapper (SuperPin's slice engine) intercept guest
// system calls before they reach the kernel. It is invoked with the
// process stopped at the instruction after the SYSCALL. Returning
// handled=true consumes the syscall (the filter has applied its effects);
// stop, when non-zero alongside handled, terminates the run with that
// reason (used when playback reaches a slice's boundary syscall).
type SyscallFilter func(k *kernel.Kernel, p *kernel.Proc) (handled bool, cost kernel.Cycles, stop kernel.StopReason)

// Engine is one instance of the instrumentation VM: a code cache plus the
// registered instrumentation and fini callbacks. Each instrumented
// process owns its own Engine — in SuperPin mode every slice gets a fresh
// one, which is exactly the paper's "each slice has its own copy of the
// code cache, and it starts in a clean state" compilation overhead.
type Engine struct {
	// Cost is the engine's cycle-cost model. Mutable until first Run.
	Cost CostModel

	// Syscall, when non-nil, filters guest syscalls (see SyscallFilter).
	Syscall SyscallFilter

	// SplitPC, when non-zero, forces a trace (and basic-block) boundary
	// at that address during compilation. SuperPin sets it to the
	// slice's end-signature PC so block-granularity instrumentation
	// stays exact across a mid-block slice boundary.
	SplitPC uint32

	// Shared, when non-nil, is a translation cache shared with other
	// engines (SuperPin's Section 8 shared-code-cache mode): on a local
	// code-cache miss the engine reuses a shared translation when one
	// exists, paying only the instrumentation-weaving cost, and
	// publishes translations it builds itself. Traces crossing this
	// engine's SplitPC are never adopted from the shared cache.
	Shared *jit.TraceCache

	// SharedBarrier defers publication of locally built translations
	// until an explicit PublishShared call. SuperPin sets it on every
	// slice engine and publishes at quantum barriers in slice order, so
	// shared-cache contents stay a pure function of virtual time no
	// matter how many host workers execute slices. When false (the
	// default, for standalone single-goroutine engines) translations
	// publish immediately, as plain Pin would.
	SharedBarrier bool

	// InsLimit, when non-zero, pauses execution (StopBudget) once the
	// process's total InsCount reaches it. SuperPin's deterministic
	// thread replay uses it to stop a thread's burst at exactly the
	// instruction count the master recorded.
	InsLimit uint64

	// NoFastPath mirrors CostModel.NoFastPath (see there); it may also
	// be toggled directly on the engine before the first Run.
	NoFastPath bool

	// NoHotTier mirrors CostModel.NoHotTier (see there); it may also be
	// toggled directly on the engine before the first Run.
	NoHotTier bool

	// SA, when non-nil, is the load-time static analysis of the guest
	// program (internal/sa). The engine consumes it in two host-side
	// ways: per-instruction liveness masks elide dead registers from the
	// save/restore modeled around inlined if/then predicates, and the
	// analysis's shared predecode backs superblock sealing. It must be
	// set before the first Run and is read-only thereafter, so one
	// analysis may be shared by every engine of a run (including
	// SuperPin's concurrently executing slice engines).
	SA *sa.Analysis

	// Warm, when non-nil, is the hot-trace warm-start seed from the
	// artifact cache (internal/artifact): per trace PC, the promotion
	// counters a prior execution of the same image earned. Freshly
	// compiled traces start from the seeded counters, so proven-hot
	// traces promote at compile time instead of re-earning the
	// threshold. Immutable and shareable like SA; set before first Run.
	// Purely host-side: seeding never changes a virtual result.
	Warm *jit.WarmSeed

	cache         *jit.CodeCache
	sealScratch   []runSpan // reused across seal calls to avoid per-compile allocs
	instrumenters []func(*Trace)
	finiFns       []func(code uint32)
	ctx           jit.Ctx
	cur           *jit.CompiledTrace
	idx           int
	stats         Stats
	trace         *obs.Tracer

	// Live telemetry (AttachMetrics): pre-resolved handles plus
	// engine-local accumulators flushed once per Run call, so the hot
	// dispatch loop never takes the registry's locks. All nil/zero when
	// no registry is attached — the default costs one nil check per
	// Run call and per superblock batch.
	metrics     *obs.Metrics
	mBatch      *obs.Hist    // pin.dispatch_batch_ins
	mCompile    *obs.Hist    // pin.compile_ns
	mPromote    *obs.Hist    // pin.promote_ns
	mExecIns    *obs.Counter // pin.live.exec_ins
	mDispatch   *obs.Counter // pin.live.dispatches
	mPromotions *obs.Counter // pin.live.promotions
	locBatch    [obs.HistBuckets]uint64
	locBatchSum uint64
	locBatchN   uint64
	lastFlushed Stats

	// pendingShared holds translations this engine built but has not yet
	// published into Shared (map for dedup, slice for build order). The
	// engine never inserts into the shared cache mid-run: the scheduler
	// publishes every engine's pending set at the quantum barrier, in
	// slice order, which makes shared-cache contents a pure function of
	// virtual time — identical for every host worker count.
	pendingShared map[uint32]*jit.Trace
	pendingOrder  []*jit.Trace

	// linkNext is a successor trace resolved by the previous trace exit's
	// link-cache hit, consumed by the next dispatch in place of the map
	// lookup. linkFrom is the previous trace when its exit missed the
	// link cache; the next dispatch records the resolved successor into
	// it. At most one of the two is set.
	linkNext *jit.CompiledTrace
	linkFrom *jit.CompiledTrace

	// hotTier caches "the hot tier is active this Run" (fast path on and
	// NoHotTier off); hotThr is the resolved promotion threshold. Both
	// are recomputed at every Run entry.
	hotTier bool
	hotThr  uint64
}

// NewEngine creates an engine with the given cost model.
func NewEngine(cost CostModel) *Engine {
	return &Engine{
		Cost:       cost,
		NoFastPath: cost.NoFastPath,
		NoHotTier:  cost.NoHotTier,
		cache:      jit.NewCodeCache(cost.CacheCapacity),
	}
}

// AddTraceInstrumenter registers a trace-time instrumentation callback,
// the analogue of TRACE_AddInstrumentFunction. Callbacks run in
// registration order each time a trace is compiled.
func (e *Engine) AddTraceInstrumenter(fn func(*Trace)) {
	e.instrumenters = append(e.instrumenters, fn)
}

// AddFiniFunction registers a callback for Fini, the analogue of
// PIN_AddFiniFunction.
func (e *Engine) AddFiniFunction(fn func(code uint32)) {
	e.finiFns = append(e.finiFns, fn)
}

// Fini runs the registered fini callbacks in order.
func (e *Engine) Fini(code uint32) {
	for _, fn := range e.finiFns {
		fn(code)
	}
}

// RequestStop asks the engine to stop before the next instruction
// executes. It is only meaningful when called from within an analysis
// routine running on this engine (SuperPin's SP_EndSlice uses it).
func (e *Engine) RequestStop() { e.ctx.RequestStop() }

// AttachObs connects the engine (and its code cache) to a tracer, with
// pid identifying the instrumented process in emitted events. Compile
// and flush events carry the virtual time of the engine's current Run
// call. Passing a nil tracer detaches.
func (e *Engine) AttachObs(t *obs.Tracer, pid int32) {
	e.trace = t
	e.cache.Trace = t
	e.cache.PID = pid
}

// AttachMetrics connects the engine to a live metrics registry: compile
// and promote wall-time histograms, the dispatch batch-size histogram,
// and live counters (pin.live.*) that track the engine's progress while
// it runs. Handles are resolved once here; the dispatch loop
// accumulates locally and flushes at each Run exit. Purely host-side —
// virtual results are byte-identical with or without a registry.
// Passing nil detaches.
func (e *Engine) AttachMetrics(m *obs.Metrics) {
	e.metrics = m
	if m == nil {
		e.mBatch, e.mCompile, e.mPromote = nil, nil, nil
		e.mExecIns, e.mDispatch, e.mPromotions = nil, nil, nil
		return
	}
	e.mBatch = m.Hist("pin.dispatch_batch_ins")
	e.mCompile = m.Hist("pin.compile_ns")
	e.mPromote = m.Hist("pin.promote_ns")
	e.mExecIns = m.LiveCounter("pin.live.exec_ins")
	e.mDispatch = m.LiveCounter("pin.live.dispatches")
	e.mPromotions = m.LiveCounter("pin.live.promotions")
	e.cache.SizeHist = m.Hist("jit.trace_ins")
}

// flushTelemetry folds the Run call's locally accumulated telemetry
// into the shared registry: the batch-size histogram in one merge, and
// the live counters by stats delta. Called once per Run exit, only with
// a registry attached.
func (e *Engine) flushTelemetry() {
	if e.mBatch != nil && e.locBatchN > 0 {
		e.mBatch.Merge(e.locBatch[:], e.locBatchSum, e.locBatchN)
		e.locBatch = [obs.HistBuckets]uint64{}
		e.locBatchSum, e.locBatchN = 0, 0
	}
	if e.mExecIns != nil {
		e.mExecIns.Add(e.stats.ExecIns - e.lastFlushed.ExecIns)
	}
	if e.mDispatch != nil {
		e.mDispatch.Add(e.stats.Dispatches - e.lastFlushed.Dispatches)
	}
	if e.mPromotions != nil {
		e.mPromotions.Add(e.stats.HotPromotions - e.lastFlushed.HotPromotions)
	}
	e.lastFlushed = e.stats
}

// queueShared records a locally built translation for publication into
// the shared cache at the next quantum barrier (first build of an
// address wins, matching TraceCache.Insert). Without SharedBarrier it
// publishes immediately.
func (e *Engine) queueShared(tr *jit.Trace) {
	if !e.SharedBarrier {
		e.Shared.Insert(tr)
		return
	}
	if e.pendingShared == nil {
		e.pendingShared = make(map[uint32]*jit.Trace)
	}
	if _, dup := e.pendingShared[tr.Addr]; dup {
		return
	}
	e.pendingShared[tr.Addr] = tr
	e.pendingOrder = append(e.pendingOrder, tr)
}

// PublishShared moves this engine's pending translations into the shared
// cache, in build order. The SuperPin core calls it for every slice
// engine, in slice order, at the quantum barrier — while no engine runs
// on a pool worker — so publication order and shared-cache contents are
// identical in serial and parallel runs. No-op without a shared cache or
// pending translations.
func (e *Engine) PublishShared() {
	if e.Shared == nil || len(e.pendingOrder) == 0 {
		return
	}
	e.Shared.Publish(e.pendingOrder)
	for _, tr := range e.pendingOrder {
		delete(e.pendingShared, tr.Addr)
	}
	e.pendingOrder = e.pendingOrder[:0]
}

// PublishMetrics publishes the engine's cumulative statistics into m
// under the given dotted prefix (e.g. "pin"). Counters accumulate, so
// publishing several engines under one prefix sums them. No-op when m
// is nil.
func (e *Engine) PublishMetrics(m *obs.Metrics, prefix string) {
	if m == nil {
		return
	}
	m.Add(prefix+".exec_ins", e.stats.ExecIns)
	m.Add(prefix+".analysis_calls", e.stats.AnalysisCalls)
	m.Add(prefix+".if_calls", e.stats.IfCalls)
	m.Add(prefix+".then_calls", e.stats.ThenCalls)
	m.Add(prefix+".dispatches", e.stats.Dispatches)
	m.Add(prefix+".superblock.ins", e.stats.SuperblockIns)
	m.Add(prefix+".sa.pred_save_regs", e.stats.PredSaveRegs)
	m.Add(prefix+".sa.shared_runs", e.stats.SASharedRuns)
	m.Add(prefix+".sa.private_runs", e.stats.SAPrivateRuns)
	m.Add(prefix+".hot.promotions", e.stats.HotPromotions)
	m.Add(prefix+".hot.ins", e.stats.HotIns)
	m.Add(prefix+".hot.hoisted_saves", e.stats.HoistedSaves)
	m.Add(prefix+".hot.link_hits", e.stats.HotLinkHits)
	m.Add(prefix+".hot.warm_promotions", e.stats.WarmPromotions)
	cs := e.cache.Stats()
	m.Add(prefix+".cache.lookups", cs.Lookups)
	m.Add(prefix+".cache.misses", cs.Misses)
	m.Add(prefix+".cache.compiles", cs.Compiles)
	m.Add(prefix+".cache.compiled_ins", cs.CompiledIns)
	m.Add(prefix+".cache.flushes", cs.Flushes)
	m.Add(prefix+".link.hits", cs.LinkHits)
	m.Add(prefix+".link.misses", cs.LinkMisses)
	m.Add(prefix+".link.invalidations", cs.LinkInvalidations)
	if e.Shared != nil {
		ts := e.Shared.Stats()
		m.Add(prefix+".shared.hits", ts.Hits)
		m.Add(prefix+".shared.misses", ts.Misses)
	}
}

// Stats returns cumulative execution statistics.
func (e *Engine) Stats() Stats { return e.stats }

// CacheStats returns cumulative code-cache statistics.
func (e *Engine) CacheStats() jit.CacheStats { return e.cache.Stats() }

// FlushCache discards all compiled traces (used by tests and by cache
// pressure experiments). Pending trace-link state dies with the cache
// generation: the flush bumps the cache epoch, which invalidates every
// recorded link lazily, and the in-flight linkNext/linkFrom pointers are
// dropped eagerly here.
func (e *Engine) FlushCache() {
	e.cache.Flush()
	e.cur = nil
	e.linkNext = nil
	e.linkFrom = nil
}

// Run implements kernel.Runner: it executes up to budget cycles of
// instrumented guest code for p.
//
// Two host-side fast paths accelerate the loop without changing any
// virtual-cycle outcome (disable both with NoFastPath):
//
//   - trace linking (Pin paper Section 2.2): each trace exit records its
//     successor in a small per-trace cache, so the next dispatch is a
//     pointer chase instead of a map lookup. The dispatch cycles are
//     still charged and the logical cache lookup is still counted.
//   - superblock execution: runs of instructions with no analysis calls
//     execute through cpu.ExecBlock (ExecBlockProf when a profiler probe
//     is attached), with cycles, InsCount, ExecIns and
//     copy-on-write charges batched per run. The run is cut at the exact
//     instruction where the reference loop's per-instruction budget or
//     InsLimit check would stop, so stop points are unchanged.
//
// A second tier rides on top of the fast paths (disable with NoHotTier,
// prove equivalence with `spbench -exp jitdiff`): traces whose dispatch
// count crosses the hotness threshold are promoted — their superblocks
// execute on a host-local register file with a static-written-set
// writeback (cpu.ExecBlockCached), dominator-redundant and loop-invariant
// predicate spills are suppressed, and the profiled hottest exit becomes
// a preferred successor link. See promote.go for the policy and DESIGN.md
// for the soundness argument.
func (e *Engine) Run(k *kernel.Kernel, p *kernel.Proc, budget kernel.Cycles) (kernel.Cycles, kernel.StopReason) {
	used, stop := e.run(k, p, budget)
	if e.metrics != nil {
		e.flushTelemetry()
	}
	return used, stop
}

// run is the dispatch loop behind Run; see Run for the contract.
func (e *Engine) run(k *kernel.Kernel, p *kernel.Proc, budget kernel.Cycles) (kernel.Cycles, kernel.StopReason) {
	cost := e.Cost
	kcost := k.Config().Cost
	fast := !e.NoFastPath
	e.hotTier = fast && !e.NoHotTier
	if e.hotTier {
		e.hotThr = DefaultHotThreshold
		if cost.HotThreshold > 0 {
			e.hotThr = uint64(cost.HotThreshold)
		}
	}
	pr := p.Prof
	ctx := &e.ctx
	ctx.Regs = &p.Regs
	ctx.Mem = p.Mem
	if e.trace != nil {
		// k.Now is frozen for the duration of this Run call, so stamping
		// once per call gives compile/flush events their correct time.
		e.cache.Now = uint64(k.Now)
	}
	var used kernel.Cycles

	// cowClear caches "no copy-on-write charge is pending" so the hot loop
	// can skip the p.CowPending probe. It is trusted only when true: it is
	// set after every chargeCow and dropped whenever something other than
	// guest execution may have touched guest memory (Run entry, syscall
	// filters, analysis calls after the charge point).
	cowClear := false
	// hasRuns caches "the current trace has at least one superblock", a
	// per-trace constant, so fully instrumented traces pay one register
	// test per instruction instead of re-probing RunAt.
	hasRuns := fast && e.cur != nil && e.cur.RunAt != nil

	for {
		if e.cur == nil {
			used += cost.Dispatch
			e.stats.Dispatches++
			if e.Shared != nil {
				used += cost.SharedCheck
			}
			if next := e.linkNext; next != nil && next.Addr == p.Regs.PC {
				// Linked dispatch: the previous exit resolved its
				// successor, so the map lookup is skipped. It still counts
				// as a (hit) lookup so CacheStats match -nofastpath runs.
				e.linkNext = nil
				e.cache.RecordLookup(true)
				e.cur, e.idx = next, 0
			} else {
				e.linkNext = nil
				ct := e.cache.Lookup(p.Regs.PC)
				e.cache.RecordLookup(ct != nil)
				if ct == nil {
					var compileStart time.Time
					if e.mCompile != nil {
						compileStart = time.Now()
					}
					var tr *jit.Trace
					sharedHit := false
					if e.Shared != nil {
						st, ok := e.Shared.Lookup(p.Regs.PC)
						if !ok {
							// A translation this engine built but has not
							// published yet serves the same way: pay the
							// weaving cost, not a rebuild.
							st, ok = e.pendingShared[p.Regs.PC]
						}
						e.Shared.RecordLookup(ok)
						if ok && !st.ContainsBeyondHead(e.SplitPC) {
							tr = st
							sharedHit = true
						}
					}
					if tr == nil {
						var err error
						tr, err = jit.BuildTraceSplit(p.Mem, p.Regs.PC, e.SplitPC)
						if err != nil {
							p.Err = err
							return used, kernel.StopError
						}
						if e.Shared != nil {
							e.queueShared(tr)
						}
					}
					ct = jit.Compile(tr)
					view := newTraceView(tr, ct)
					for _, fn := range e.instrumenters {
						fn(view)
					}
					if e.SA != nil {
						e.annotateLiveness(e.SA, ct)
					}
					if fast {
						e.seal(ct)
					}
					e.cache.Insert(ct)
					if e.hotTier && e.Warm != nil {
						e.applyWarm(ct)
					}
					if e.mCompile != nil {
						e.mCompile.Observe(uint64(time.Since(compileStart)))
					}
					if sharedHit {
						used += kernel.Cycles(ct.NumIns()) * cost.WeavePerIns
					} else {
						used += kernel.Cycles(ct.NumIns()) * cost.CompilePerIns
					}
				}
				if from := e.linkFrom; from != nil {
					from.SetLink(p.Regs.PC, ct, e.cache.Epoch())
					if h := from.Hot; h != nil && h.NextPC == p.Regs.PC {
						// The exiting trace's promoted layout treats this
						// successor as its fall-through: resolve the hot
						// link so future exits skip the link cache.
						h.SetNext(ct, e.cache.Epoch())
					}
					e.linkFrom = nil
				}
				e.cur, e.idx = ct, 0
			}
			e.tickHot(e.cur, false)
			hasRuns = fast && e.cur.RunAt != nil
		}

		// Superblock fast path: execute the call-free run starting at the
		// current instruction in one batched ExecBlock call. Skipped while
		// an uncharged copy-on-write event is pending (possible after a
		// kernel syscall wrote guest memory) so the charge lands at the
		// same instruction as in the reference loop.
		if hasRuns && (cowClear || !p.CowPending()) {
			if ri := e.cur.RunAt[e.idx]; ri >= 0 {
				sb := &e.cur.Sblocks[ri]
				off := e.idx - sb.Start
				var pre uint64
				if off > 0 {
					pre = sb.Cum[off-1]
				}
				avail := len(sb.Block) - off
				// Budget hoisting: the reference loop executes an
				// instruction, then stops if used >= budget. Binary-search
				// the cumulative-cost array for the instruction whose
				// completion crosses the budget; that instruction still
				// executes, everything after it does not.
				allow := avail
				if used >= budget {
					allow = 1
				} else if target := pre + uint64(budget-used); sb.Cum[off+avail-1] >= target {
					// The budget trips somewhere inside the run (rare):
					// binary-search for the crossing instruction.
					lo, hi := off, off+avail
					for lo < hi {
						mid := int(uint(lo+hi) >> 1)
						if sb.Cum[mid] >= target {
							hi = mid
						} else {
							lo = mid + 1
						}
					}
					allow = lo - off + 1
				}
				// Same hoisting for the InsLimit pause point.
				if e.InsLimit != 0 {
					if p.InsCount >= e.InsLimit {
						allow = 1
					} else if rem := e.InsLimit - p.InsCount; uint64(allow) > rem {
						allow = int(rem)
					}
				}
				var n int
				var ev cpu.Event
				var err error
				// Promoted traces run register-cached: a non-zero writeback
				// mask (the run's static written-set) selects the host-local
				// register file executor. Entering mid-run (off > 0) keeps
				// the whole-run mask — a superset writeback writes values
				// the suffix left untouched, which are the values already
				// in the architectural file.
				wb := uint32(0)
				if h := e.cur.Hot; h != nil && h.WB != nil {
					wb = h.WB[ri]
				}
				switch {
				case wb != 0 && pr == nil:
					n, ev, err = cpu.ExecBlockCached(&p.Regs, p.Mem, sb.Block[off:], allow, p.Mem.CopyEvents, wb)
				case wb != 0:
					n, ev, err = cpu.ExecBlockCachedProf(&p.Regs, p.Mem, sb.Block[off:], allow, p.Mem.CopyEvents, pr, wb)
				case pr != nil:
					n, ev, err = cpu.ExecBlockProf(&p.Regs, p.Mem, sb.Block[off:], allow, p.Mem.CopyEvents, pr)
				default:
					n, ev, err = cpu.ExecBlock(&p.Regs, p.Mem, sb.Block[off:], allow, p.Mem.CopyEvents)
				}
				if n > 0 {
					used += kernel.Cycles(sb.Cum[off+n-1]-pre) + chargeCow(p, kcost)
					cowClear = true
					p.InsCount += uint64(n)
					e.stats.ExecIns += uint64(n)
					e.stats.SuperblockIns += uint64(n)
					if e.mBatch != nil {
						// Engine-local batch-size accounting; merged into
						// the shared histogram once per Run call.
						e.locBatch[obs.HistBucket(uint64(n))]++
						e.locBatchSum += uint64(n)
						e.locBatchN++
					}
					if wb != 0 {
						e.stats.HotIns += uint64(n)
					}
					e.idx += n
				}
				if err != nil {
					p.Err = err
					e.cur = nil
					return used, kernel.StopError
				}
				if ev == cpu.EvSyscall {
					// Unreachable by construction — superblocks exclude
					// SYSCALL — but kept identical to the slow path.
					e.cur = nil
					if e.Syscall != nil {
						handled, c, stop := e.Syscall(k, p)
						used += c
						cowClear = false
						if handled {
							if stop != kernel.StopBudget {
								return used, stop
							}
							if used >= budget || e.limitReached(p) {
								return used, kernel.StopBudget
							}
							continue
						}
					}
					return used, kernel.StopSyscall
				}
				if e.idx >= len(e.cur.Ins) || e.cur.Ins[e.idx].Addr != p.Regs.PC {
					if p.Regs.PC == e.cur.Addr && used < budget && !e.limitReached(p) {
						e.selfLoop(&used)
						continue
					}
					e.leaveTrace(p.Regs.PC, fast)
				}
				if used >= budget || e.limitReached(p) {
					return used, kernel.StopBudget
				}
				continue
			}
		}

		ci := &e.cur.Ins[e.idx]
		ctx.PC = ci.Addr
		ctx.Inst = ci.Inst

		// IPOINT_BEFORE analysis calls. A stop request here terminates
		// the run before the instruction executes, with the PC still at
		// the instrumented instruction — the semantics SuperPin's
		// boundary detection needs.
		for i := range ci.Before {
			used += e.runCall(ctx, &ci.Before[i], ci.LiveBefore, e.hoistedAt(e.idx))
			if ctx.StopRequested() {
				e.cur = nil
				return used, kernel.StopExit
			}
		}

		ev, err := cpu.Exec(&p.Regs, p.Mem, ci.Inst)
		if err != nil {
			p.Err = err
			e.cur = nil
			return used, kernel.StopError
		}
		used += cost.Exec
		if ci.Inst.Op.IsMem() {
			used += cost.MemSurcharge
		}
		used += chargeCow(p, kcost)
		cowClear = true
		p.InsCount++
		e.stats.ExecIns++
		if pr != nil {
			// The probe observes the retired instruction here — after its
			// architectural effects, before After-point analysis calls and
			// syscall servicing — the same point as the native interpreter
			// and the superblock fast path, so all modes sample identically.
			pr.OnExec(ci.Inst, ci.Addr+isa.WordSize, p.Regs.PC)
		}

		// IPOINT_AFTER analysis calls. They may write guest memory, so the
		// cached no-pending-COW flag is dropped.
		for i := range ci.After {
			cowClear = false
			used += e.runCall(ctx, &ci.After[i], ci.LiveAfter, e.hoistedAt(e.idx))
			if ctx.StopRequested() {
				e.cur = nil
				return used, kernel.StopExit
			}
		}

		if ev == cpu.EvSyscall {
			e.cur = nil
			if e.Syscall != nil {
				handled, c, stop := e.Syscall(k, p)
				used += c
				cowClear = false
				if handled {
					if stop != kernel.StopBudget {
						return used, stop
					}
					if used >= budget || e.limitReached(p) {
						return used, kernel.StopBudget
					}
					continue
				}
			}
			return used, kernel.StopSyscall
		}

		// Fall through within the trace if the PC matches the next
		// compiled instruction; otherwise re-dispatch.
		e.idx++
		if e.idx >= len(e.cur.Ins) || e.cur.Ins[e.idx].Addr != p.Regs.PC {
			if fast && p.Regs.PC == e.cur.Addr && used < budget && !e.limitReached(p) {
				e.selfLoop(&used)
				continue
			}
			e.leaveTrace(p.Regs.PC, fast)
		}
		if used >= budget || e.limitReached(p) {
			return used, kernel.StopBudget
		}
	}
}

// selfLoop re-enters the current trace at its head: the exit branched
// back to the trace's own entry (a hot loop body), so the dispatcher's
// map lookup and the link-cache round trip are both skipped. Virtual
// accounting is unchanged — the dispatch cycles are charged and the
// logical (hit) lookup is counted exactly as the reference loop does.
// Callers must have checked that the budget and InsLimit have not been
// reached, since a real trace exit would stop before re-dispatching.
func (e *Engine) selfLoop(used *kernel.Cycles) {
	*used += e.Cost.Dispatch
	if e.Shared != nil {
		*used += e.Cost.SharedCheck
	}
	e.stats.Dispatches++
	e.cache.RecordLookup(true)
	e.tickHot(e.cur, true)
	e.idx = 0
}

// leaveTrace ends execution of the current trace with control headed to
// nextPC. With the fast path on it consults the trace's successor cache:
// on a hit the target is staged in linkNext for the upcoming dispatch to
// consume without a map lookup; on a miss the trace is remembered in
// linkFrom so that dispatch can record the resolved successor. The
// dispatch cost itself is always charged at the top of the loop, keeping
// virtual-cycle accounting identical with -nofastpath.
func (e *Engine) leaveTrace(nextPC uint32, fast bool) {
	if fast {
		if h := e.cur.Hot; h != nil {
			if h.NextPC == nextPC {
				// Promoted layout: this exit is the trace's measured
				// fall-through. An epoch-valid hot link stages the successor
				// directly; a stale one was evicted by a flush and is
				// dropped. The first-tier link counters are left alone —
				// they keep describing the link cache only (jitdiff
				// normalizes them; HotLinkHits is the hot tier's own
				// counter).
				if next, _ := h.Next(e.cache.Epoch()); next != nil {
					e.stats.HotLinkHits++
					e.linkNext = next
					e.cur = nil
					return
				}
				// Unresolved: fall through to the link cache; its miss path
				// stages linkFrom, and the next dispatch resolves both the
				// link-cache entry and the hot link.
			}
		} else if e.hotTier {
			e.cur.Exits.Record(nextPC)
		}
		if next, stale := e.cur.Link(nextPC, e.cache.Epoch()); next != nil {
			e.cache.RecordLink(true)
			e.linkNext = next
		} else {
			if stale {
				e.cache.RecordLinkInvalidation()
			}
			e.cache.RecordLink(false)
			e.linkFrom = e.cur
		}
	}
	e.cur = nil
}

// minSuperblockIns is the shortest call-free run worth batching: the
// fast path's setup (run lookup, budget search, batched accounting)
// costs more than the reference loop saves on a run of one.
const minSuperblockIns = 2

// fastEligible reports whether a compiled instruction may live inside a
// superblock: it must carry no analysis calls (nothing to run between
// instructions) and must not trap (SYSCALL returns to the kernel).
func fastEligible(ci *jit.CompiledIns) bool {
	return len(ci.Before) == 0 && len(ci.After) == 0 && ci.Inst.Op != isa.OpSYSCALL
}

// sealFastPaths precomputes a trace's superblock index without a static
// analysis attached — the reference sealing path, kept for tests and as
// the documentation of what seal computes.
func sealFastPaths(ct *jit.CompiledTrace, cost CostModel) {
	(&Engine{Cost: cost}).seal(ct)
}

// sharedRun returns the analysis's load-time predecode slice covering
// the run ct.Ins[i:j], or nil when no analysis is attached or the
// predecode no longer matches the freshly compiled trace. Traces are
// address-contiguous, so a run maps onto one region slice; each entry is
// validated against the compiled instruction, which catches predecode
// gone stale through self-modifying code — execution must follow what
// the trace (compiled from current guest memory) says, never the
// load-time image.
func (e *Engine) sharedRun(ct *jit.CompiledTrace, i, j int) []cpu.BlockIns {
	if e.SA == nil {
		return nil
	}
	pre, ok := e.SA.Predecoded(ct.Ins[i].Addr)
	if !ok || len(pre) < j-i {
		return nil
	}
	pre = pre[: j-i : j-i]
	for x := i; x < j; x++ {
		if pre[x-i].Inst != ct.Ins[x].Inst {
			return nil
		}
	}
	return pre
}

// runSpan is one superblock run found by seal's sizing pass.
type runSpan struct {
	i, j   int
	shared []cpu.BlockIns // non-nil: use the analysis's predecode
}

// seal precomputes a freshly instrumented trace's superblock index:
// maximal runs of fast-eligible instructions, predecoded for
// cpu.ExecBlock, with cumulative per-run cycle costs so the dispatch
// loop can batch accounting and hoist the budget checks out of the
// per-instruction path. Runs after the tool's instrumenters, which are
// what decide eligibility.
//
// Sealing runs on every compile, so allocation cost matters: a sizing
// pass finds the runs (into an engine-owned scratch slice) before a fill
// pass allocates single backing arrays. With a static analysis attached,
// runs that still match the load-time image borrow its shared predecode
// instead of building a private copy.
func (e *Engine) seal(ct *jit.CompiledTrace) {
	cost := e.Cost
	n := len(ct.Ins)
	spans := e.sealScratch[:0]
	covered, private := 0, 0
	for i := 0; i < n; {
		if !fastEligible(&ct.Ins[i]) {
			i++
			continue
		}
		j := i + 1
		for j < n && fastEligible(&ct.Ins[j]) {
			j++
		}
		if j-i >= minSuperblockIns {
			sp := runSpan{i: i, j: j, shared: e.sharedRun(ct, i, j)}
			covered += j - i
			if sp.shared == nil {
				private += j - i
			}
			spans = append(spans, sp)
		}
		i = j
	}
	e.sealScratch = spans
	if len(spans) == 0 {
		return
	}
	runAt := make([]int32, n)
	for r := range runAt {
		runAt[r] = -1
	}
	var blocks []cpu.BlockIns
	if private > 0 {
		blocks = make([]cpu.BlockIns, private)
	}
	cums := make([]uint64, covered)
	sblocks := make([]jit.Superblock, 0, len(spans))
	bpos, cpos := 0, 0
	for _, sp := range spans {
		i, j := sp.i, sp.j
		sb := jit.Superblock{
			Start: i,
			Block: sp.shared,
			Cum:   cums[cpos : cpos+j-i : cpos+j-i],
		}
		cpos += j - i
		if sp.shared == nil {
			sb.Block = blocks[bpos : bpos+j-i : bpos+j-i]
			bpos += j - i
			if e.SA != nil {
				e.stats.SAPrivateRuns++
			}
		} else {
			e.stats.SASharedRuns++
		}
		var cum uint64
		ri := int32(len(sblocks))
		for x := i; x < j; x++ {
			ci := &ct.Ins[x]
			cum += uint64(cost.Exec)
			if ci.Inst.Op.IsMem() {
				cum += uint64(cost.MemSurcharge)
			}
			if sp.shared == nil {
				sb.Block[x-i] = cpu.BlockIns{Inst: ci.Inst, Next: ci.Addr + isa.WordSize}
			}
			sb.Cum[x-i] = cum
			runAt[x] = ri
		}
		sblocks = append(sblocks, sb)
	}
	ct.Sblocks = sblocks
	ct.RunAt = runAt
}

// annotateLiveness stamps the analysis's per-instruction liveness masks
// onto the call-carrying instructions of a freshly compiled trace, so
// runCall's predicate save/restore can skip dead registers. Instructions
// without calls are left unstamped (the masks are only consulted at call
// sites).
func (e *Engine) annotateLiveness(a *sa.Analysis, ct *jit.CompiledTrace) {
	for i := range ct.Ins {
		ci := &ct.Ins[i]
		if len(ci.Before) > 0 {
			ci.LiveBefore = a.LiveIn(ci.Addr)
		}
		if len(ci.After) > 0 {
			ci.LiveAfter = a.LiveOut(ci.Addr)
		}
	}
}

// limitReached reports whether the InsLimit pause point has been hit.
func (e *Engine) limitReached(p *kernel.Proc) bool {
	return e.InsLimit != 0 && p.InsCount >= e.InsLimit
}

// ResetPosition discards the engine's intra-trace execution position.
// Callers that swap the process's register context (SuperPin's thread
// replay) must call it so dispatch restarts from the new PC. In-flight
// trace-link state is keyed to the pre-swap PC, so it is dropped too.
func (e *Engine) ResetPosition() {
	e.cur = nil
	e.linkNext = nil
	e.linkFrom = nil
}

// allLive is the save/restore mask covering the whole register file,
// used when no liveness information is stamped on the call site (a zero
// mask means "unknown" — the static analysis always sets bit 0).
const allLive = ^uint32(0)

// runCall executes one analysis call site and returns its cycle cost.
// live is the statically-live register mask at the site (zero when
// unknown).
//
// Around an inlined if/then predicate, Pin saves the registers the
// predicate could observe clobbered and restores them afterwards; with
// liveness information it only spills the statically-live subset. The
// engine models that host-side work here: snapshot the live registers,
// run the predicate, restore. Predicates never write guest registers
// (they are pure observers), so the restore is semantically a no-op and
// virtual results are identical with or without the analysis — only the
// PredSaveRegs host counter moves. A stale mask (self-modifying code
// after load) is harmless for the same reason.
//
// hoisted marks a spill the hot tier proved redundant at promotion
// (promote.go): the snapshot/restore pair is skipped entirely — sound for
// the same pure-observer reason the restore is a no-op — and only the
// HoistedSaves host counter moves. The predicate, its virtual-cycle
// charge and the then-call are untouched.
func (e *Engine) runCall(ctx *jit.Ctx, c *jit.Call, live uint32, hoisted bool) kernel.Cycles {
	cost := e.Cost
	if c.Fn != nil {
		e.stats.AnalysisCalls++
		c.Fn(ctx)
		return cost.Call
	}
	e.stats.IfCalls++
	cy := cost.IfCall
	var fire bool
	if hoisted {
		e.stats.HoistedSaves++
		fire = c.If(ctx)
	} else {
		mask := live
		if mask == 0 {
			mask = allLive
		}
		var buf [isa.NumRegs]uint32
		pc := ctx.Regs.PC
		n := cpu.SaveMasked(ctx.Regs, mask, &buf)
		fire = c.If(ctx)
		cpu.RestoreMasked(ctx.Regs, mask, &buf)
		ctx.Regs.PC = pc
		e.stats.PredSaveRegs += uint64(n)
	}
	if fire && c.Then != nil {
		e.stats.ThenCalls++
		c.Then(ctx)
		cy += cost.ThenCall
	}
	return cy
}

// hoistedAt reports whether the current trace's promoted layout
// suppressed the predicate spill at compiled instruction idx.
func (e *Engine) hoistedAt(idx int) bool {
	h := e.cur.Hot
	return h != nil && h.Hoist != nil && h.Hoist[idx]
}

// chargeCow charges copy-on-write page copies triggered by the last
// instruction, mirroring kernel.NativeRunner's accounting.
func chargeCow(p *kernel.Proc, cost kernel.CostModel) kernel.Cycles {
	return p.ChargeCow(cost)
}
