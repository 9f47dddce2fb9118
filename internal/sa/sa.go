// Package sa is the guest-code static analysis subsystem: a one-shot
// pass over a linked SVR32 program image that runs at load time, before
// the first instruction executes.
//
// It provides, in load order:
//
//   - whole-program CFG recovery from the decoded image: basic-block
//     discovery from the entry point and the symbol table, direct
//     branch/jal edge resolution, reachability, and a dominator tree
//     over the entry-reachable subgraph (cfg.go, dom.go);
//   - backward register-liveness and stack-depth dataflow per block,
//     exposed through a compact per-address query API (live.go);
//   - a guest-binary verifier that rejects malformed images and warns
//     on suspicious ones (verify.go), including function-level warnings
//     over the direct-call graph (callgraph.go).
//
// The Pin engine (internal/pin) consumes the results in two ways: the
// per-instruction liveness masks let it skip dead registers in the
// save/restore sequence modeled around inlined if/then analysis calls,
// and the per-region predecoded instruction arrays let superblock run
// marking slice a load-time predecode instead of rebuilding one per
// compile. Both are host-side optimizations: virtual-cycle results are
// byte-identical with the analysis attached or not (the -nosa escape
// hatch, proven by `spbench -exp sadiff`).
package sa

import (
	"fmt"

	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
)

// AllRegs is the liveness mask meaning "every register live" — the
// conservative answer returned for addresses the analysis knows nothing
// about.
const AllRegs = ^uint32(0)

// Severity classifies a verifier finding.
type Severity uint8

// Severities.
const (
	SevWarn  Severity = iota // suspicious but runnable
	SevError                 // the image is malformed; loading should fail
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Code identifies a verifier rule.
type Code uint8

// Verifier rule codes.
const (
	// CodeUndecodable: a reachable word is not a valid SVR32 encoding.
	CodeUndecodable Code = iota
	// CodeBadTarget: a direct branch or jal targets an address outside
	// the decodable image.
	CodeBadTarget
	// CodeMisaligned: the entry point or a control target is not word
	// aligned.
	CodeMisaligned
	// CodeFallOff: control flow runs off the end of the image.
	CodeFallOff
	// CodeTruncated: control flow reaches trailing bytes that do not
	// form a whole instruction word (a truncated image).
	CodeTruncated
	// CodeStackImbalance: a loop accumulates net stack depth (a back
	// edge arrives at its header with a different stack depth than the
	// header's established one).
	CodeStackImbalance
	// CodeUninitRead: a register is read somewhere in reachable code
	// but written nowhere in the program.
	CodeUninitRead
	// CodeSMCStore: a store's target is statically provable and lies
	// inside the code image (self-modifying code; the engine supports
	// it, so this is flagged, not rejected).
	CodeSMCStore
	// CodeUnreachable: bytes in the image are neither reachable code
	// nor valid encodings (one summary finding per image).
	CodeUnreachable
	// CodeUnreachableFn: a symbol labels a function-shaped body (it
	// contains a return) that no direct call edge ever reaches and that
	// is unreachable from the entry.
	CodeUnreachableFn
	// CodeCallImbalance: a function provably returns with a nonzero net
	// stack-pointer delta relative to its entry.
	CodeCallImbalance
)

var codeNames = [...]string{
	CodeUndecodable:    "undecodable",
	CodeBadTarget:      "bad-target",
	CodeMisaligned:     "misaligned",
	CodeFallOff:        "fall-off",
	CodeTruncated:      "truncated",
	CodeStackImbalance: "stack-imbalance",
	CodeUninitRead:     "uninit-read",
	CodeSMCStore:       "smc-store",
	CodeUnreachable:    "unreachable",
	CodeUnreachableFn:  "unreachable-fn",
	CodeCallImbalance:  "call-imbalance",
}

func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// Diag is one verifier finding.
type Diag struct {
	Sev  Severity
	Code Code
	// Addr is the guest address the finding is anchored to (the
	// offending instruction, or 0 for whole-image findings).
	Addr uint32
	Msg  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s at %#08x: %s", d.Sev, d.Code, d.Addr, d.Msg)
}

// reach levels: a word can be discovered from the entry point (full
// diagnostics) or only from the symbol table (no diagnostics — symbols
// may label data that happens to decode).
const (
	reachNone  uint8 = 0
	reachSym   uint8 = 1
	reachEntry uint8 = 2
)

// region is the word-aligned decodable span of one image segment.
type region struct {
	addr uint32 // word-aligned start
	ins  []isa.Inst
	ok   []bool // ok[i]: word i decodes
	// pre is the shared predecode of the region for the engine's
	// superblock fast path: pre[i] = {ins[i], addr+4(i+1)}. Built once
	// at load time and never written afterwards, so engines (including
	// concurrently running SuperPin slices) may slice it freely.
	pre []cpu.BlockIns
	// liveIn/liveOut are per-word liveness masks (bit r = register r
	// live); 0 means "not analyzed" and reads back as AllRegs.
	liveIn, liveOut []uint32
	reach           []uint8
	leader          []bool
	blockOf         []int32
	tail            int // trailing bytes that do not form a word
}

func (r *region) words() int            { return len(r.ins) }
func (r *region) wordAddr(i int) uint32 { return r.addr + uint32(i)*isa.WordSize }

// block is one recovered basic block.
type block struct {
	ri         int // region index
	start, end int // word range [start, end) within the region
	entryReach bool

	// succs are resolved successor block ids, aligned with kinds.
	// conservative marks blocks whose successor set is not fully known
	// (indirect jumps, calls, faults) — liveness treats their live-out
	// as AllRegs.
	succs        []int
	kinds        []edgeKind
	conservative bool
}

// edgeKind classifies a CFG edge for the stack-depth dataflow.
type edgeKind uint8

const (
	edgeFlow edgeKind = iota // branch taken/fall-through: depth propagates
	edgeCall                 // call to a callee entry: depth restarts at 0
	edgeRet                  // call fall-through: depth propagates (calls assumed balanced)
)

// Analysis is the result of analyzing one program image. It is immutable
// after Analyze returns and safe for concurrent readers.
type Analysis struct {
	prog    *asm.Program
	regions []*region
	blocks  []*block
	diags   []Diag

	entryBlock int   // block id of the entry block, -1 if none
	idom       []int // per block id; -1 = no immediate dominator / not entry-reachable
	rpo        []int // entry-reachable block ids in reverse postorder
}

// Analyze runs the static-analysis pass over p: CFG recovery,
// dominators, liveness, stack-depth dataflow, and the verifier. It
// never fails; malformed images are reported through the diagnostics
// (Errors/Warnings), and queries about unanalyzable addresses return
// conservative answers.
func Analyze(p *asm.Program) *Analysis {
	a := &Analysis{prog: p, entryBlock: -1}
	if p == nil {
		a.diags = append(a.diags, Diag{Sev: SevError, Code: CodeBadTarget, Msg: "nil program"})
		return a
	}
	a.buildRegions()
	a.discover()
	a.buildBlocks()
	a.computeDominators()
	a.computeLiveness()
	a.verify()
	return a
}

// AnalyzeIntra is Analyze, kept for callers that still name the
// intraprocedural tier (DESIGN §11).
func AnalyzeIntra(p *asm.Program) *Analysis { return Analyze(p) }

// Diags returns all findings, errors first, in discovery order within
// each severity.
func (a *Analysis) Diags() []Diag {
	out := make([]Diag, 0, len(a.diags))
	out = append(out, a.Errors()...)
	out = append(out, a.Warnings()...)
	return out
}

// Errors returns the findings that make the image unloadable.
func (a *Analysis) Errors() []Diag { return a.filter(SevError) }

// Warnings returns the non-fatal findings.
func (a *Analysis) Warnings() []Diag { return a.filter(SevWarn) }

func (a *Analysis) filter(sev Severity) []Diag {
	var out []Diag
	for _, d := range a.diags {
		if d.Sev == sev {
			out = append(out, d)
		}
	}
	return out
}

// Err returns nil when the image verified clean of errors, or an error
// summarizing the fatal findings (warnings never fail verification).
func (a *Analysis) Err() error {
	errs := a.Errors()
	if len(errs) == 0 {
		return nil
	}
	msg := errs[0].String()
	if len(errs) > 1 {
		msg = fmt.Sprintf("%s (and %d more)", msg, len(errs)-1)
	}
	return fmt.Errorf("sa: verifier rejected the image: %s", msg)
}

// locate maps a guest address to its region and word index. ok is false
// for addresses outside the image or off the word grid.
func (a *Analysis) locate(addr uint32) (ri, wi int, ok bool) {
	if addr%isa.WordSize != 0 {
		return 0, 0, false
	}
	lo, hi := 0, len(a.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := a.regions[mid]
		if addr < r.addr {
			hi = mid
		} else if addr >= r.addr+uint32(r.words())*isa.WordSize {
			lo = mid + 1
		} else {
			return mid, int(addr-r.addr) / isa.WordSize, true
		}
	}
	return 0, 0, false
}

// LiveIn returns the mask of registers statically live immediately
// before the instruction at addr executes (bit r set = register r's
// value may still be read). Addresses the analysis has no code for
// return AllRegs, the conservative answer.
func (a *Analysis) LiveIn(addr uint32) uint32 {
	if ri, wi, ok := a.locate(addr); ok {
		if m := a.regions[ri].liveIn[wi]; m != 0 {
			return m
		}
	}
	return AllRegs
}

// LiveOut is LiveIn's counterpart for the point immediately after the
// instruction at addr retires.
func (a *Analysis) LiveOut(addr uint32) uint32 {
	if ri, wi, ok := a.locate(addr); ok {
		if m := a.regions[ri].liveOut[wi]; m != 0 {
			return m
		}
	}
	return AllRegs
}

// Summary returns the per-trace liveness summary for the n instructions
// starting at addr: the live-in mask at the trace head and the union of
// the live-out masks at its instructions (every register the trace may
// leave meaningful). ok is false when any instruction is unanalyzed, in
// which case both masks are AllRegs.
func (a *Analysis) Summary(addr uint32, n int) (liveIn, liveOut uint32, ok bool) {
	ri, wi, found := a.locate(addr)
	if !found || wi+n > a.regions[ri].words() {
		return AllRegs, AllRegs, false
	}
	r := a.regions[ri]
	liveIn = r.liveIn[wi]
	if liveIn == 0 {
		return AllRegs, AllRegs, false
	}
	for i := wi; i < wi+n; i++ {
		m := r.liveOut[i]
		if m == 0 {
			return AllRegs, AllRegs, false
		}
		liveOut |= m
	}
	return liveIn, liveOut, true
}

// Predecoded returns the image's shared predecoded instruction run
// starting at addr and extending to the end of addr's region. The slice
// is built once at load time and never mutated, so callers may retain
// and re-slice it from any goroutine; entries whose word did not decode
// hold the zero instruction. ok is false when addr is not a word inside
// the image.
func (a *Analysis) Predecoded(addr uint32) (run []cpu.BlockIns, ok bool) {
	ri, wi, found := a.locate(addr)
	if !found {
		return nil, false
	}
	return a.regions[ri].pre[wi:], true
}

// Reachable reports whether addr holds an instruction reachable from the
// program entry point along direct control-flow edges.
func (a *Analysis) Reachable(addr uint32) bool {
	ri, wi, ok := a.locate(addr)
	return ok && a.regions[ri].reach[wi] == reachEntry
}

// BlockLeader returns the address of the first instruction of the
// recovered basic block containing addr. ok is false when addr is not
// inside discovered code.
func (a *Analysis) BlockLeader(addr uint32) (leader uint32, ok bool) {
	b := a.blockAt(addr)
	if b == nil {
		return 0, false
	}
	return a.regions[b.ri].wordAddr(b.start), true
}

// Succs returns the addresses of the resolved successor blocks of the
// block whose leader is addr (direct edges only; indirect successors are
// not represented).
func (a *Analysis) Succs(addr uint32) []uint32 {
	b := a.blockAt(addr)
	if b == nil {
		return nil
	}
	out := make([]uint32, 0, len(b.succs))
	for _, id := range b.succs {
		s := a.blocks[id]
		out = append(out, a.regions[s.ri].wordAddr(s.start))
	}
	return out
}

// NumBlocks returns the number of recovered basic blocks.
func (a *Analysis) NumBlocks() int { return len(a.blocks) }

func (a *Analysis) blockAt(addr uint32) *block {
	ri, wi, ok := a.locate(addr)
	if !ok {
		return nil
	}
	id := a.regions[ri].blockOf[wi]
	if id < 0 {
		return nil
	}
	return a.blocks[id]
}
