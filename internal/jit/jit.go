// Package jit implements the trace-based just-in-time translation layer
// of the Pin-workalike engine: basic-block and trace construction over
// guest code, the instrumented-trace representation, and the code cache.
//
// Mirroring Pin's VM (paper Section 2.2), execution units are traces — a
// straight-line sequence of basic blocks entered at the top, extended
// through the fall-through edges of conditional branches, and ended at an
// unconditional control transfer, a system call, or a size limit. The
// dispatcher (internal/pin) looks traces up in the code cache and invokes
// compilation on a miss; compilation is where instrumentation is woven in.
package jit

import (
	"fmt"
	"sync/atomic"

	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/mem"
	"superpin/internal/obs"
	"superpin/internal/prof"
)

// Limits on trace construction, matching the spirit of Pin's trace
// selection heuristics.
const (
	MaxTraceBbls = 8
	MaxTraceIns  = 64
)

// BBL is a decoded basic block: straight-line instructions ending at the
// first control transfer (or at the trace size limit).
type BBL struct {
	// Addr is the address of the first instruction.
	Addr uint32
	// Ins are the decoded instructions; instruction i is at Addr + 4i.
	Ins []isa.Inst
}

// NumIns returns the number of instructions in the block.
func (b *BBL) NumIns() int { return len(b.Ins) }

// InsAddr returns the address of instruction i.
func (b *BBL) InsAddr(i int) uint32 { return b.Addr + uint32(i)*isa.WordSize }

// Trace is a single-entry multiple-exit sequence of basic blocks.
type Trace struct {
	Addr   uint32
	Bbls   []*BBL
	NumIns int
}

// BuildTrace decodes a trace starting at pc from guest memory. It never
// fails on size grounds; it fails only if the first instruction cannot be
// decoded (executing from a non-code address). An undecodable word later
// in the trace simply ends the trace early — the bad word might never be
// reached at run time, and if it is, execution faults there.
func BuildTrace(m *mem.Memory, pc uint32) (*Trace, error) {
	return BuildTraceSplit(m, pc, 0)
}

// BuildTraceSplit is BuildTrace with a forced trace boundary: when split
// is non-zero, any trace that would flow into address split ends just
// before it, so split is always a trace (and basic-block) leader.
// SuperPin slices compile with their end-signature PC as the split point,
// which keeps basic-block-granularity tools exact across slice
// boundaries: the partial block before the boundary is its own block, and
// the instructions from the boundary onward are counted only by the next
// slice.
func BuildTraceSplit(m *mem.Memory, pc, split uint32) (*Trace, error) {
	tr := &Trace{Addr: pc}
	cur := pc
	for len(tr.Bbls) < MaxTraceBbls && tr.NumIns < MaxTraceIns {
		bbl := &BBL{Addr: cur}
		for tr.NumIns < MaxTraceIns {
			if split != 0 && cur == split && tr.NumIns > 0 {
				return endTrace(tr, bbl), nil
			}
			in, err := m.FetchInst(cur)
			if err != nil {
				if tr.NumIns == 0 {
					return nil, fmt.Errorf("jit: trace at %#08x: %w", pc, err)
				}
				return endTrace(tr, bbl), nil
			}
			bbl.Ins = append(bbl.Ins, in)
			tr.NumIns++
			cur += isa.WordSize
			if in.Op.EndsBlock() {
				tr.Bbls = append(tr.Bbls, bbl)
				if in.Op.IsUncondBranch() || in.Op == isa.OpSYSCALL {
					return tr, nil // trace ends at unconditional transfer
				}
				// Conditional branch: extend the trace along the
				// fall-through edge with a new block.
				bbl = nil
				break
			}
		}
		if bbl != nil { // size limit hit mid-block
			if len(bbl.Ins) > 0 {
				tr.Bbls = append(tr.Bbls, bbl)
			}
			return tr, nil
		}
	}
	return tr, nil
}

func endTrace(tr *Trace, bbl *BBL) *Trace {
	if len(bbl.Ins) > 0 {
		tr.Bbls = append(tr.Bbls, bbl)
	}
	return tr
}

// AnalysisFn is an analysis routine inserted by a tool. The context
// argument exposes the architectural state of the instrumented process at
// the instrumentation point.
type AnalysisFn func(ctx *Ctx)

// PredicateFn is an inlined conditional analysis routine (InsertIfCall):
// cheap, and guarding a full AnalysisFn (InsertThenCall).
type PredicateFn func(ctx *Ctx) bool

// Call is one analysis-call site attached to an instruction.
// Either Fn is set (a plain InsertCall), or If/Then are set (an inlined
// InsertIfCall guarding an InsertThenCall; Then may be nil for a bare
// if).
type Call struct {
	Fn   AnalysisFn
	If   PredicateFn
	Then AnalysisFn
}

// CompiledIns is one guest instruction in a compiled trace together with
// its woven-in instrumentation.
//
// LiveBefore and LiveAfter are statically-live register masks (bit i set
// means ri may be read before being overwritten on some path from here),
// stamped by the pin engine from the load-time static analysis when one
// is attached. Zero means "unknown" — the analysis always sets bit 0
// (r0) on masks it computed — and consumers must then assume every
// register is live. They are only stamped on instructions carrying calls.
type CompiledIns struct {
	Addr       uint32
	Inst       isa.Inst
	Before     []Call // run before the instruction executes
	After      []Call // run after it executes
	LiveBefore uint32 // live registers entering the instruction
	LiveAfter  uint32 // live registers after the instruction
}

// Superblock is a maximal run of consecutive compiled instructions that
// carry no analysis calls and cannot trap into the kernel: no Before or
// After call sites and no SYSCALL. The dispatch loop executes such a run
// as one cpu.ExecBlock call, batching cycle, instruction-count and COW
// accounting once per run instead of once per instruction. Superblocks
// are a host-side execution strategy only — the virtual cycles charged
// are identical to the per-instruction reference loop.
type Superblock struct {
	// Start is the index into CompiledTrace.Ins of the run's first
	// instruction; Block[i] predecodes Ins[Start+i].
	Start int
	Block []cpu.BlockIns
	// Cum[i] is the cumulative virtual cost of executing Block[:i+1]
	// (per-instruction exec cost plus the memory surcharge for memory
	// ops; copy-on-write charges are excluded and accounted separately).
	// Monotone non-decreasing, so the dispatch loop can binary-search
	// for the exact instruction where a cycle budget would trip.
	Cum []uint64
}

// numTraceLinks is the size of the per-trace successor cache. Trace
// exits are branches, so a handful of direct-mapped entries covers the
// taken/fall-through targets of a trace's few exit points.
const numTraceLinks = 4

// traceLink is one successor-cache entry: exits whose next PC equals pc
// may enter next directly, provided the code cache has not been flushed
// since the link was recorded (epoch match).
type traceLink struct {
	pc    uint32
	epoch uint64
	next  *CompiledTrace
}

// CompiledTrace is the code-cache resident, instrumented form of a trace.
type CompiledTrace struct {
	Addr uint32
	Ins  []CompiledIns

	// Sblocks and RunAt are the dispatch fast path's superblock index,
	// filled in by the pin engine after instrumentation is woven in.
	// RunAt[i] is the index into Sblocks of the run beginning coverage of
	// instruction i, or -1 when instruction i is not inside any run.
	// RunAt is nil when the trace has no runs (or the fast path is off).
	Sblocks []Superblock
	RunAt   []int32

	// Execs and SelfLoops count dispatches into this trace (SelfLoops the
	// subset that re-entered through the self-loop shortcut), and Exits
	// profiles where the trace's exits transferred to. The pin engine
	// maintains them until Execs crosses its hotness threshold, then
	// promotes the trace and stops counting. All three are host-side
	// tier-up state: they steer execution strategy, never virtual cycles,
	// and like the trace itself they are private to the owning engine.
	Execs     uint64
	SelfLoops uint64
	Exits     prof.ExitHist

	// Hot is the second-tier compilation artifact; nil until promotion.
	Hot *HotTrace

	links [numTraceLinks]traceLink
}

// NumIns returns the number of guest instructions in the compiled trace.
func (ct *CompiledTrace) NumIns() int { return len(ct.Ins) }

// SetLink records next as the successor trace for exits that transfer to
// pc, tagged with the code-cache epoch that validates it. This is the
// analogue of Pin patching a trace's exit branch to jump directly to its
// successor in the code cache (paper Section 2.2): subsequent exits to
// pc skip the dispatcher's map lookup.
func (ct *CompiledTrace) SetLink(pc uint32, next *CompiledTrace, epoch uint64) {
	ct.links[(pc>>2)%numTraceLinks] = traceLink{pc: pc, epoch: epoch, next: next}
}

// Link returns the cached successor trace for exits to pc, or nil when
// no valid link exists. An entry recorded before the last cache flush is
// dead — the target was evicted — so it is cleared and reported via
// stale rather than followed.
func (ct *CompiledTrace) Link(pc uint32, epoch uint64) (next *CompiledTrace, stale bool) {
	l := &ct.links[(pc>>2)%numTraceLinks]
	if l.next == nil || l.pc != pc {
		return nil, false
	}
	if l.epoch != epoch {
		*l = traceLink{}
		return nil, true
	}
	return l.next, false
}

// Compile lowers a trace into its executable compiled form (without
// instrumentation; the pin engine's instrumentation pass fills in the
// call lists afterwards).
func Compile(tr *Trace) *CompiledTrace {
	ct := &CompiledTrace{Addr: tr.Addr, Ins: make([]CompiledIns, 0, tr.NumIns)}
	for _, b := range tr.Bbls {
		for i, in := range b.Ins {
			ct.Ins = append(ct.Ins, CompiledIns{Addr: b.InsAddr(i), Inst: in})
		}
	}
	return ct
}

// ContainsBeyondHead reports whether pc is the address of an instruction
// inside the trace other than its entry. SuperPin slices must not use a
// shared translation that crosses their boundary PC (the boundary must be
// a block leader for exact block-granularity instrumentation), so they
// check this before adopting a shared trace.
func (t *Trace) ContainsBeyondHead(pc uint32) bool {
	if pc == 0 || pc == t.Addr {
		return false
	}
	for _, b := range t.Bbls {
		if pc >= b.Addr && pc < b.Addr+uint32(b.NumIns())*isa.WordSize &&
			(pc-b.Addr)%isa.WordSize == 0 {
			return true
		}
	}
	return false
}

// TraceCacheStats are cumulative shared-translation-cache statistics.
type TraceCacheStats struct {
	Hits   uint64
	Misses uint64
}

// traceCacheShards is the number of entry-address shards in a shared
// TraceCache. Sharding keeps barrier publication cache-friendly and
// bounds any one map's growth; the shard of an entry depends only on its
// address, never on who built it.
const traceCacheShards = 16

// TraceCache is a translation cache shared across engines — the paper's
// Section 8 future-work idea of sharing the code cache across all
// timeslices. It stores *uninstrumented* built traces: translation (the
// expensive part of compilation) happens once, while each engine still
// weaves its own instrumentation, since analysis calls are bound to
// per-slice tool state.
//
// Concurrency contract (what keeps parallel runs byte-identical to
// serial runs): engines running on pool workers only *read* the cache
// (Lookup) and count outcomes through the atomic statistics
// (RecordLookup). Newly built traces are not inserted mid-quantum —
// each engine keeps them pending privately and the scheduler publishes
// every engine's pending set, in slice order, at the quantum barrier
// (Publish), while all workers are quiescent. Publication is therefore a
// pure function of virtual time, identical for every worker count, and
// the map writes are ordered against worker reads by the pool's round
// protocol — no locks needed. Each Publish batch that lands at least one
// new entry advances the cache epoch.
type TraceCache struct {
	shards [traceCacheShards]map[uint32]*Trace
	epoch  uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewTraceCache creates an empty shared translation cache.
func NewTraceCache() *TraceCache {
	tc := &TraceCache{}
	for i := range tc.shards {
		tc.shards[i] = make(map[uint32]*Trace)
	}
	return tc
}

// shardOf maps a (word-aligned) trace entry address to its shard.
func shardOf(pc uint32) uint32 { return (pc >> 2) % traceCacheShards }

// Lookup returns the shared trace entered at pc, if present. Lookup is a
// pure read — it mutates no statistics — so the cache safely serves
// concurrent readers; the engine that owns the lookup records its outcome
// with RecordLookup.
func (tc *TraceCache) Lookup(pc uint32) (*Trace, bool) {
	tr, ok := tc.shards[shardOf(pc)][pc]
	return tr, ok
}

// RecordLookup accumulates one lookup outcome into the statistics. The
// counters are atomic: every engine on every worker records through the
// same pair.
func (tc *TraceCache) RecordLookup(hit bool) {
	if hit {
		tc.hits.Add(1)
	} else {
		tc.misses.Add(1)
	}
}

// Insert publishes a built trace for other engines to reuse, returning
// whether it created a new entry. Re-inserting an existing entry keeps
// the first (all engines build identical traces from the same code).
// Callers must hold the publication barrier: Insert runs only while no
// engine executes on a pool worker.
func (tc *TraceCache) Insert(tr *Trace) bool {
	s := tc.shards[shardOf(tr.Addr)]
	if _, dup := s[tr.Addr]; dup {
		return false
	}
	s[tr.Addr] = tr
	return true
}

// Publish inserts a batch of built traces (one engine's pending set, in
// build order) at the quantum barrier, advancing the cache epoch if any
// entry is new. It returns the number of entries created.
func (tc *TraceCache) Publish(trs []*Trace) int {
	n := 0
	for _, tr := range trs {
		if tc.Insert(tr) {
			n++
		}
	}
	if n > 0 {
		tc.epoch++
	}
	return n
}

// Epoch returns the publication epoch: the number of Publish batches
// that added at least one entry. Deterministic across worker counts.
func (tc *TraceCache) Epoch() uint64 { return tc.epoch }

// Len returns the number of published traces.
func (tc *TraceCache) Len() int {
	n := 0
	for _, s := range tc.shards {
		n += len(s)
	}
	return n
}

// Stats returns cumulative statistics.
func (tc *TraceCache) Stats() TraceCacheStats {
	return TraceCacheStats{Hits: tc.hits.Load(), Misses: tc.misses.Load()}
}

// CacheStats are cumulative code-cache statistics. The Link counters
// track the trace-linking fast path: a hit is a trace exit resolved
// through the predecessor's successor cache (no map lookup), a miss is
// an exit that fell back to the dispatcher, and an invalidation is a
// link found dead because the cache was flushed after it was recorded.
type CacheStats struct {
	Lookups     uint64
	Misses      uint64
	Compiles    uint64
	CompiledIns uint64
	Flushes     uint64

	LinkHits          uint64
	LinkMisses        uint64
	LinkInvalidations uint64
}

// CodeCache maps trace entry addresses to compiled traces, with a
// capacity measured in compiled instructions. Like Pin, exceeding the
// capacity flushes the entire cache; applications whose code footprint
// exceeds the cache recompile continually (the paper's gcc).
type CodeCache struct {
	// Capacity is the maximum resident compiled instructions; <= 0 means
	// unlimited.
	Capacity int

	// Trace, when non-nil, receives EvCompile/EvCacheFlush events. PID
	// identifies the owning process and Now is the virtual timestamp;
	// both are maintained by the owning engine before it drives the
	// cache (the cache itself has no notion of time).
	Trace *obs.Tracer
	PID   int32
	Now   uint64

	// SizeHist, when non-nil, observes the compiled size (in guest
	// instructions) of every inserted trace. It is attached by the
	// owning engine when telemetry is enabled.
	SizeHist *obs.Hist

	traces   map[uint32]*CompiledTrace
	resident int
	epoch    uint64
	stats    CacheStats
}

// NewCodeCache creates a cache holding up to capacity compiled
// instructions (<= 0 for unlimited).
func NewCodeCache(capacity int) *CodeCache {
	return &CodeCache{Capacity: capacity, traces: make(map[uint32]*CompiledTrace)}
}

// Lookup returns the compiled trace entered at pc, or nil on a miss.
// Lookup is a pure read — it mutates no statistics — making read-only
// sharing safe; the owning engine records the outcome with RecordLookup.
func (c *CodeCache) Lookup(pc uint32) *CompiledTrace {
	return c.traces[pc]
}

// RecordLookup accumulates one lookup outcome into the statistics,
// keeping mutation on the cache's owning engine rather than hidden inside
// Lookup.
func (c *CodeCache) RecordLookup(hit bool) {
	c.stats.Lookups++
	if !hit {
		c.stats.Misses++
	}
}

// Traces calls fn for every resident compiled trace, in no particular
// order. It is a read-only walk for tests and diagnostics; fn must not
// insert into or flush the cache.
func (c *CodeCache) Traces(fn func(*CompiledTrace)) {
	for _, ct := range c.traces { //detguard:ok documented order-free walk
		fn(ct)
	}
}

// RecordLink accumulates one trace-link resolution outcome.
func (c *CodeCache) RecordLink(hit bool) {
	if hit {
		c.stats.LinkHits++
	} else {
		c.stats.LinkMisses++
	}
}

// RecordLinkInvalidation accumulates one stale-link detection (a link
// recorded before the last flush).
func (c *CodeCache) RecordLinkInvalidation() { c.stats.LinkInvalidations++ }

// Epoch returns the cache's flush epoch. It increments on every Flush;
// trace links record the epoch they were created in and are dead when it
// no longer matches.
func (c *CodeCache) Epoch() uint64 { return c.epoch }

// Insert adds a compiled trace, flushing the cache first if it would
// exceed capacity. A single trace larger than the entire capacity is
// admitted capacity-exempt — no flush, and excluded from the resident
// accounting — because no amount of flushing can make it fit, and
// counting it would leave resident above capacity forever, wedging the
// cache into a whole-cache flush on every subsequent insert.
func (c *CodeCache) Insert(ct *CompiledTrace) {
	n := ct.NumIns()
	oversized := c.Capacity > 0 && n > c.Capacity
	if c.Capacity > 0 && !oversized && c.resident+n > c.Capacity && len(c.traces) > 0 {
		c.Flush()
	}
	c.traces[ct.Addr] = ct
	if !oversized {
		c.resident += n
	}
	c.stats.Compiles++
	c.stats.CompiledIns += uint64(n)
	if c.SizeHist != nil {
		c.SizeHist.Observe(uint64(n))
	}
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{
			Kind: obs.EvCompile, Time: c.Now, PID: c.PID, CPU: -1,
			Arg: uint64(ct.Addr), Arg2: uint64(n),
		})
	}
}

// Flush discards every compiled trace.
func (c *CodeCache) Flush() {
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{
			Kind: obs.EvCacheFlush, Time: c.Now, PID: c.PID, CPU: -1,
			Arg: uint64(c.resident),
		})
	}
	c.traces = make(map[uint32]*CompiledTrace)
	c.resident = 0
	c.epoch++
	c.stats.Flushes++
}

// Resident returns the number of compiled instructions currently cached.
func (c *CodeCache) Resident() int { return c.resident }

// Stats returns cumulative cache statistics.
func (c *CodeCache) Stats() CacheStats { return c.stats }
