package tools

import (
	"fmt"
	"io"

	"superpin/internal/core"
	"superpin/internal/pin"
)

// Watch is a register watchpoint tool: at the head of every basic block
// it checks whether a watched register has dropped below a fence
// address, and counts the blocks entered in that state. The canonical
// use is a data-fence watchpoint — watch the tool's data-base register
// against the start of the data region, so any block entered with the
// pointer escaped below the fence is caught and counted.
//
// The check is an inlined InsertIfCall/InsertThenCall pair, so every
// block head pays the modeled predicate spill; the static analysis's
// liveness masks narrow it.
type Watch struct {
	reg    uint8
	fence  uint32
	out    io.Writer
	shared []uint64
}

// NewWatch returns a watchpoint on reg against fence.
func NewWatch(out io.Writer, reg uint8, fence uint32) *Watch {
	return &Watch{reg: reg, fence: fence, out: out}
}

// NewWatchOpaque is NewWatch, kept for callers that still compare an
// opaque watchpoint with a declared one (DESIGN §11).
func NewWatchOpaque(out io.Writer, reg uint8, fence uint32) *Watch {
	return NewWatch(out, reg, fence)
}

// Factory returns the per-process tool factory.
func (w *Watch) Factory() core.ToolFactory {
	return func(ctl *core.ToolCtl) core.Tool {
		inst := &watchInstance{family: w, local: make([]uint64, 1)}
		inst.shared = ctl.CreateSharedArea(inst.local, core.MergeSum)
		if ctl.SliceNum() == -1 {
			w.shared = inst.shared
		}
		return inst
	}
}

// Hits returns the final merged count of blocks entered with the
// watched register below the fence. Valid after the run.
func (w *Watch) Hits() uint64 {
	if w.shared == nil {
		return 0
	}
	return w.shared[0]
}

type watchInstance struct {
	family *Watch
	local  []uint64
	shared []uint64
}

// Instrument implements core.Tool.
func (t *watchInstance) Instrument(tr *pin.Trace) {
	reg, fence := t.family.reg, t.family.fence
	pred := func(ctx *pin.Ctx) bool { return ctx.Regs.R[reg] < fence }
	for _, bbl := range tr.Bbls() {
		head := bbl.InsHead()
		head.InsertIfCall(pin.Before, pred)
		head.InsertThenCall(pin.Before, func(*pin.Ctx) { t.local[0]++ })
	}
}

// Fini implements core.Finisher.
func (t *watchInstance) Fini(code uint32) {
	if t.family.out != nil {
		fmt.Fprintf(t.family.out, "Watchpoint hits: %d\n", t.shared[0])
	}
}
