// Package pin implements the dynamic binary instrumentation engine that
// SuperPin is built on — a workalike of Intel Pin's VM at the level of
// detail the paper depends on (Section 2.2): a JIT that compiles guest
// code into instrumented traces held in a code cache, a dispatcher, and a
// Pintool instrumentation API with TRACE/BBL/INS objects, InsertCall, and
// the inlined InsertIfCall / InsertThenCall pair used by SuperPin's
// signature detector.
//
// A Pintool registers a trace-instrumentation callback; at compile time
// the callback walks the trace's basic blocks and instructions and
// attaches analysis calls; at run time the engine executes the
// instrumented trace, charging the calibrated cycle costs of analysis
// calls, compilation and dispatch to the owning process's virtual time.
//
// # Error handling
//
// The Insert* functions panic on misuse: a nil analysis function or
// predicate, or an InsertThenCall with no preceding unpaired
// InsertIfCall. These are programmer errors in the Pintool itself —
// detectable the first time the tool's instrumentation callback runs,
// never dependent on user input — so they fail loudly at the call site
// rather than propagating errors through every instrumentation
// callback, mirroring Pin's own usage contract. Configuration errors
// (user-supplied cache geometry, sampling budgets) are returned as
// ordinary errors by the tool constructors in internal/tools.
package pin

import (
	"fmt"

	"superpin/internal/isa"
	"superpin/internal/jit"
)

// Re-exported instrumentation types. Analysis routines receive a *Ctx
// exposing the instrumented process's architectural state.
type (
	// Ctx is the analysis-time context (see jit.Ctx).
	Ctx = jit.Ctx
	// AnalysisFn is a plain analysis routine.
	AnalysisFn = jit.AnalysisFn
	// PredicateFn is an inlined conditional analysis routine.
	PredicateFn = jit.PredicateFn
)

// IPoint selects where an analysis call is inserted relative to an
// instruction, mirroring Pin's IPOINT_BEFORE / IPOINT_AFTER.
type IPoint uint8

// Insertion points.
const (
	Before IPoint = iota
	After
)

// Trace is the instrumentation-time view of a compiled trace.
type Trace struct {
	ct   *jit.CompiledTrace
	bbls []*Bbl
}

// Bbl is the instrumentation-time view of a basic block within a trace.
type Bbl struct {
	trace *Trace
	addr  uint32
	start int // index of first instruction in trace
	n     int
}

// Ins is the instrumentation-time view of one instruction.
type Ins struct {
	trace *Trace
	idx   int
}

// newTraceView wraps a compiled trace and its source trace for
// instrumentation callbacks.
func newTraceView(tr *jit.Trace, ct *jit.CompiledTrace) *Trace {
	t := &Trace{ct: ct}
	idx := 0
	for _, b := range tr.Bbls {
		t.bbls = append(t.bbls, &Bbl{trace: t, addr: b.Addr, start: idx, n: b.NumIns()})
		idx += b.NumIns()
	}
	return t
}

// Addr returns the trace's entry address.
func (t *Trace) Addr() uint32 { return t.ct.Addr }

// NumIns returns the number of instructions in the trace.
func (t *Trace) NumIns() int { return t.ct.NumIns() }

// Bbls returns the trace's basic blocks in order.
func (t *Trace) Bbls() []*Bbl { return t.bbls }

// Addr returns the block's entry address.
func (b *Bbl) Addr() uint32 { return b.addr }

// NumIns returns the number of instructions in the block.
func (b *Bbl) NumIns() int { return b.n }

// InsHead returns the block's first instruction.
func (b *Bbl) InsHead() *Ins { return &Ins{trace: b.trace, idx: b.start} }

// Ins returns the block's instructions in order.
func (b *Bbl) Ins() []*Ins {
	out := make([]*Ins, b.n)
	for i := 0; i < b.n; i++ {
		out[i] = &Ins{trace: b.trace, idx: b.start + i}
	}
	return out
}

// InsertCall attaches a plain analysis call to the head of the block,
// the idiom used by basic-block-granularity tools such as icount2.
func (b *Bbl) InsertCall(when IPoint, fn AnalysisFn) {
	b.InsHead().InsertCall(when, fn)
}

func (i *Ins) slot() *jit.CompiledIns { return &i.trace.ct.Ins[i.idx] }

// Addr returns the instruction's address.
func (i *Ins) Addr() uint32 { return i.slot().Addr }

// Inst returns the decoded instruction.
func (i *Ins) Inst() isa.Inst { return i.slot().Inst }

// IsMemRead reports whether the instruction reads data memory.
func (i *Ins) IsMemRead() bool { return i.slot().Inst.Op.IsLoad() }

// IsMemWrite reports whether the instruction writes data memory.
func (i *Ins) IsMemWrite() bool { return i.slot().Inst.Op.IsStore() }

// IsControl reports whether the instruction can redirect control flow.
func (i *Ins) IsControl() bool { return i.slot().Inst.Op.IsControl() }

// MemSize returns the size of the instruction's memory access (0 if none).
func (i *Ins) MemSize() int { return i.slot().Inst.Op.MemSize() }

func (i *Ins) calls(when IPoint) *[]jit.Call {
	if when == Before {
		return &i.slot().Before
	}
	return &i.slot().After
}

// InsertCall attaches a plain analysis call at the given point. Plain
// calls model Pin's full call sequence (register save/restore around the
// call) and carry the engine's Call cost.
func (i *Ins) InsertCall(when IPoint, fn AnalysisFn) {
	if fn == nil {
		panic("pin: InsertCall with nil function")
	}
	list := i.calls(when)
	*list = append(*list, jit.Call{Fn: fn})
}

// InsertIfCall attaches an inlined conditional check at the given point.
// The check is cheap (it models Pin inlining the predicate at the
// instrumentation site); if it returns true, the matching InsertThenCall
// routine runs at full call cost. SuperPin's two-register quick signature
// check uses exactly this pair (paper Section 4.4).
func (i *Ins) InsertIfCall(when IPoint, pred PredicateFn) {
	if pred == nil {
		panic("pin: InsertIfCall with nil predicate")
	}
	list := i.calls(when)
	*list = append(*list, jit.Call{If: pred})
}

// InsertThenCall attaches the guarded routine for the immediately
// preceding InsertIfCall at the same point. It panics if there is no
// unpaired InsertIfCall, matching Pin's usage contract.
func (i *Ins) InsertThenCall(when IPoint, fn AnalysisFn) {
	if fn == nil {
		panic("pin: InsertThenCall with nil function")
	}
	list := i.calls(when)
	for j := len(*list) - 1; j >= 0; j-- {
		c := &(*list)[j]
		if c.If != nil && c.Then == nil && c.Fn == nil {
			c.Then = fn
			return
		}
	}
	panic(fmt.Sprintf("pin: InsertThenCall at %#08x without matching InsertIfCall", i.Addr()))
}

// InsertIfThenCall is a convenience wrapper pairing InsertIfCall and
// InsertThenCall in one step.
func (i *Ins) InsertIfThenCall(when IPoint, pred PredicateFn, fn AnalysisFn) {
	i.InsertIfCall(when, pred)
	i.InsertThenCall(when, fn)
}
