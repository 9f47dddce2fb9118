// Call-graph recovery for the verifier's function-level warnings
// (unreachable-fn, call-imbalance).
//
// Functions are discovered structurally from direct edges: the program
// entry, every jal call target, and every symbol that labels a
// discovered block leader. A function's body is the closure of its
// entry over flow and call-continuation edges — call edges leave the
// function, so a callee's blocks are not its caller's (though bodies
// may share blocks when code is reached both ways). Liveness does not
// consult the call graph; it keeps treating every call as opaque.
package sa

import (
	"sort"

	"superpin/internal/isa"
	"superpin/internal/kernel"
)

// isReturnBlock reports the canonical return shape: jalr r0, lr, 0.
func (a *Analysis) isReturnBlock(b *block) bool {
	in := a.regions[b.ri].ins[b.end-1]
	return in.Op == isa.OpJALR && in.Rd == isa.RegZero &&
		in.Rs1 == isa.RegLR && in.Imm == 0
}

// isDirectCall reports a jal call whose callee entry and return
// continuation both resolved to discovered blocks.
func (a *Analysis) isDirectCall(b *block) bool {
	in := a.regions[b.ri].ins[b.end-1]
	return in.Op == isa.OpJAL && in.Rd != isa.RegZero &&
		len(b.succs) == 2 && b.kinds[0] == edgeCall && b.kinds[1] == edgeRet
}

// opaque reports a block whose continuation the call graph cannot
// account for: any conservative block other than a canonical return or
// a resolved direct call (an indirect jalr, a run cut short).
func (a *Analysis) opaque(b *block) bool {
	return b.conservative && !a.isReturnBlock(b) && !a.isDirectCall(b)
}

// functions returns the function entry block ids, sorted: the program
// entry, every call-edge target, and every symbol-labeled block leader.
func (a *Analysis) functions() []int {
	fnSet := make(map[int]bool)
	if a.entryBlock >= 0 {
		fnSet[a.entryBlock] = true
	}
	for _, b := range a.blocks {
		for i, s := range b.succs {
			if b.kinds[i] == edgeCall {
				fnSet[s] = true
			}
		}
	}
	for _, addr := range a.prog.Symbols { //detguard:ok set insertion only
		if sb := a.blockAt(addr); sb != nil && a.regions[sb.ri].wordAddr(sb.start) == addr {
			fnSet[int(a.regions[sb.ri].blockOf[sb.start])] = true
		}
	}
	fns := make([]int, 0, len(fnSet))
	for f := range fnSet { //detguard:ok sorted below
		fns = append(fns, f)
	}
	sort.Ints(fns)
	return fns
}

// hasReturn reports whether the body of the function entered at block
// f contains a canonical return (the function is function shaped).
func (a *Analysis) hasReturn(f int) bool {
	seen := map[int]bool{f: true}
	stack := []int{f}
	for len(stack) > 0 {
		b := a.blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if a.isReturnBlock(b) {
			return true
		}
		for i, s := range b.succs {
			if b.kinds[i] != edgeCall && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// classifyWild scans the blocks reachable from the entry (over all
// edge kinds) for control the call graph cannot account for: an
// opaque block (an indirect jalr that is not a return, a run cut short
// without a terminator), or a syscall whose number is unknown or
// provably a spawn (children start at an arbitrary entry with a copy
// of the register file). A wild program may reach any symbol, so the
// unreachable-function check stays silent on it.
func (a *Analysis) classifyWild() bool {
	if a.entryBlock < 0 {
		return true
	}
	seen := make([]bool, len(a.blocks))
	stack := []int{a.entryBlock}
	seen[a.entryBlock] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := a.blocks[id]
		if a.opaque(b) {
			return true
		}
		if a.regions[b.ri].ins[b.end-1].Op == isa.OpSYSCALL {
			if s := a.syscallNumber(b); !s.known || s.val == kernel.SysSpawn {
				return true
			}
		}
		for _, s := range b.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
