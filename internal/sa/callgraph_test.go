package sa

import (
	"reflect"
	"slices"
	"testing"

	"superpin/internal/asm"
)

// mutualSrc is a mutually recursive even/odd pair: the call graph's
// only nontrivial SCC.
const mutualSrc = `	.entry main
even:
	beq r10, r0, yes
	addi r10, r10, -1
	call odd
	ret
yes:
	li r11, 1
	ret
odd:
	beq r10, r0, no
	addi r10, r10, -1
	call even
	ret
no:
	li r11, 0
	ret
main:
	li r10, 6
	call even
	li r1, 1
	li r2, 0
	syscall
`

// TestCallGraphMutualRecursion recovers the direct-call graph of a
// mutually recursive program: main, even and odd are function entries
// (symbol-labeled leaders like yes/no are too), even and odd are
// function shaped, the program is not wild, and no function-level
// warning is raised.
func TestCallGraphMutualRecursion(t *testing.T) {
	prog, err := asm.Assemble(mutualSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	a := Analyze(prog)
	if a.Err() != nil {
		t.Fatalf("analyze: %v", a.Err())
	}
	if a.classifyWild() {
		t.Fatal("program with only direct calls and known syscalls classified wild")
	}
	fns := a.functions()
	for _, name := range []string{"main", "even", "odd"} {
		b := a.blockAt(a.Addr(t, name))
		f := int(a.regions[b.ri].blockOf[b.start])
		if !slices.Contains(fns, f) {
			t.Errorf("%s is not a function entry", name)
		}
		if name != "main" && !a.hasReturn(f) {
			t.Errorf("%s: no canonical return in its body", name)
		}
	}
	for _, d := range a.Warnings() {
		if d.Code == CodeUnreachableFn || d.Code == CodeCallImbalance {
			t.Errorf("unexpected function-level warning: %s", d)
		}
	}
}

// TestCallGraphIndirectJumpIsWild: a jalr that is not a return leaves
// the call graph incomplete, so the program is wild and the
// unreachable-function warning stays silent even for a body nothing
// calls directly.
func TestCallGraphIndirectJumpIsWild(t *testing.T) {
	prog, err := asm.Assemble(`	.entry main
deadfn:
	addi r3, r0, 7
	ret
main:
	la r5, deadfn
	jalr r31, r5, 0
	li r1, 1
	li r2, 0
	syscall
`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	a := Analyze(prog)
	if !a.classifyWild() {
		t.Fatal("indirect call did not make the program wild")
	}
	for _, d := range a.Warnings() {
		if d.Code == CodeUnreachableFn {
			t.Fatalf("unreachable-fn reported on a wild program: %s", d)
		}
	}
}

// TestLivenessFixpointStable re-runs the liveness sweep over a
// converged mutually recursive program and demands bit-identical
// masks (a true fixpoint, not merely a bounded one), with every call
// site's live-out the full register file.
func TestLivenessFixpointStable(t *testing.T) {
	prog, err := asm.Assemble(mutualSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	a := Analyze(prog)
	type masks struct{ in, out uint32 }
	snapshot := func() map[uint32]masks {
		m := make(map[uint32]masks)
		for _, seg := range prog.Segments {
			for off := uint32(0); off+4 <= uint32(len(seg.Data)); off += 4 {
				addr := seg.Addr + off
				m[addr] = masks{in: a.LiveIn(addr), out: a.LiveOut(addr)}
			}
		}
		return m
	}
	before := snapshot()
	a.computeLiveness()
	if !reflect.DeepEqual(before, snapshot()) {
		t.Fatal("second liveness sweep moved a converged mask")
	}
	for _, b := range a.blocks {
		if a.isDirectCall(b) {
			addr := a.regions[b.ri].wordAddr(b.end - 1)
			if got := a.LiveOut(addr); got != AllRegs {
				t.Errorf("LiveOut(call at %#x) = %#x, want AllRegs", addr, got)
			}
		}
	}
}
