package sa

import (
	"superpin/internal/isa"
	"superpin/internal/kernel"
)

// useDef returns the registers read and written by one instruction, as
// masks with the r0 bit stripped (r0 is hardwired and never really live).
// SYSCALL is maximally conservative on the use side: SysSpawn hands the
// child a copy of the whole register file, so every register's value is
// observable at a syscall. computeLiveness refines this for syscalls
// whose number is block-locally provable (see syscallUse).
func useDef(in isa.Inst) (use, def uint32) {
	if in.Op == isa.OpSYSCALL {
		return AllRegs &^ 1, 1 << isa.RegSys
	}
	use = in.SrcRegs() &^ 1
	if d := in.DstReg(); d > 0 {
		def = 1 << uint(d)
	}
	return use, def
}

// syscallUse returns the refined use mask for the SYSCALL that ends
// block b, or the maximal mask when no refinement is possible. SYSCALL
// is a control instruction, so when a block contains one it is always
// the last instruction — the same block-local constant propagation that
// proves terminal exits can prove the syscall number here. A proven
// non-spawn syscall observes only the architectural argument registers
// (r1..r5); an unknown number, or a spawn (which hands the child a copy
// of the whole register file), keeps everything observable.
func (a *Analysis) syscallUse(b *block) uint32 {
	if s := a.syscallNumber(b); s.known && s.val != kernel.SysSpawn {
		return a.regions[b.ri].ins[b.end-1].SrcRegs() &^ 1
	}
	return AllRegs &^ 1
}

// syscallNumber replays the block-local syscall-number constant state
// up to (excluding) b's terminator.
func (a *Analysis) syscallNumber(b *block) r1State {
	r := a.regions[b.ri]
	var s r1State
	for i := b.start; i < b.end-1; i++ {
		s = trackR1(s, r.ins[i])
	}
	return s
}

// computeLiveness runs backward register liveness to a fixpoint over all
// discovered blocks, then fills the per-instruction live-in/live-out
// masks the engine queries.
//
// Conservatism: blocks with statically unknown continuations (indirect
// jumps, returns, calls — whose callees run arbitrary code before the
// continuation resumes) treat every register as live-out. A provably
// terminal exit syscall has nothing live-out. Stored masks always carry
// the r0 bit so a zero mask can mean "not analyzed".
func (a *Analysis) computeLiveness() {
	n := len(a.blocks)
	if n == 0 {
		return
	}
	// Per-block upward-exposed use / kill summaries. sysUse caches the
	// refined SYSCALL use mask for blocks ending in one.
	bUse := make([]uint32, n)
	bDef := make([]uint32, n)
	sysUse := make([]uint32, n)
	for id, b := range a.blocks {
		r := a.regions[b.ri]
		if r.ins[b.end-1].Op == isa.OpSYSCALL {
			sysUse[id] = a.syscallUse(b)
		}
		var use, def uint32
		for i := b.end - 1; i >= b.start; i-- {
			u, d := useDef(r.ins[i])
			if i == b.end-1 && r.ins[i].Op == isa.OpSYSCALL {
				u = sysUse[id]
			}
			use = u | (use &^ d)
			def |= d
		}
		bUse[id], bDef[id] = use, def
	}

	liveIn := make([]uint32, n)
	liveOut := make([]uint32, n)
	for changed := true; changed; {
		changed = false
		for id := n - 1; id >= 0; id-- {
			b := a.blocks[id]
			var out uint32
			if b.conservative {
				out = AllRegs &^ 1
			} else {
				for _, s := range b.succs {
					out |= liveIn[s]
				}
			}
			in := bUse[id] | (out &^ bDef[id])
			if out != liveOut[id] || in != liveIn[id] {
				liveOut[id], liveIn[id] = out, in
				changed = true
			}
		}
	}

	// Per-instruction masks, by a backward walk through each block.
	for id, b := range a.blocks {
		r := a.regions[b.ri]
		live := liveOut[id]
		for i := b.end - 1; i >= b.start; i-- {
			r.liveOut[i] = live | 1
			u, d := useDef(r.ins[i])
			if i == b.end-1 && r.ins[i].Op == isa.OpSYSCALL {
				u = sysUse[id]
			}
			live = u | (live &^ d)
			r.liveIn[i] = live | 1
		}
	}
}
