package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Profile is a completed run's sample stream: the serial probe's samples,
// or SuperPin's per-slice streams concatenated in slice-merge order
// (which, by the slice-coverage invariant, is the same stream).
type Profile struct {
	// Interval is the sampling interval in retired instructions.
	Interval uint64
	// TotalIns is the run's total retired-instruction count.
	TotalIns uint64
	// Samples are in virtual-time order (strictly increasing Index).
	Samples []Sample
}

// Diff compares two profiles and returns a description of the first
// difference, or "" when they are identical. The description names the
// diverging sample so failures are debuggable.
func (p *Profile) Diff(q *Profile) string {
	if p.Interval != q.Interval {
		return fmt.Sprintf("intervals differ: %d vs %d", p.Interval, q.Interval)
	}
	if p.TotalIns != q.TotalIns {
		return fmt.Sprintf("total instruction counts differ: %d vs %d", p.TotalIns, q.TotalIns)
	}
	if len(p.Samples) != len(q.Samples) {
		return fmt.Sprintf("sample counts differ: %d vs %d", len(p.Samples), len(q.Samples))
	}
	for i := range p.Samples {
		a, b := &p.Samples[i], &q.Samples[i]
		if a.Index != b.Index || a.PC != b.PC {
			return fmt.Sprintf("sample %d differs: index %d pc %#08x vs index %d pc %#08x",
				i, a.Index, a.PC, b.Index, b.PC)
		}
		if len(a.Stack) != len(b.Stack) {
			return fmt.Sprintf("sample %d (index %d) stack depths differ: %d vs %d",
				i, a.Index, len(a.Stack), len(b.Stack))
		}
		for j := range a.Stack {
			if a.Stack[j] != b.Stack[j] {
				return fmt.Sprintf("sample %d (index %d) stack frame %d differs: %#08x vs %#08x",
					i, a.Index, j, a.Stack[j], b.Stack[j])
			}
		}
	}
	return ""
}

// Symtab symbolizes guest addresses from a program's label map
// (asm.Program.Symbols). Lookup resolves an address to the nearest label
// at or below it; addresses below every label render as hex. Ties
// (several labels at one address) resolve to the lexicographically
// smallest name, so symbolization is deterministic.
type Symtab struct {
	addrs []uint32
	names []string
}

// NewSymtab builds a symbol table from a label map.
func NewSymtab(symbols map[string]uint32) *Symtab {
	type sym struct {
		addr uint32
		name string
	}
	syms := make([]sym, 0, len(symbols))
	for name, addr := range symbols {
		syms = append(syms, sym{addr, name})
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].addr != syms[j].addr {
			return syms[i].addr < syms[j].addr
		}
		return syms[i].name < syms[j].name
	})
	t := &Symtab{}
	for _, s := range syms {
		if n := len(t.addrs); n > 0 && t.addrs[n-1] == s.addr {
			continue // keep the smallest name at this address
		}
		t.addrs = append(t.addrs, s.addr)
		t.names = append(t.names, s.name)
	}
	return t
}

// Lookup returns the name of the nearest label at or below pc, or the
// address in hex when pc precedes every label. A nil Symtab symbolizes
// everything as hex.
func (t *Symtab) Lookup(pc uint32) string {
	if t != nil {
		// Rightmost label with addr <= pc.
		lo, hi := 0, len(t.addrs)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.addrs[mid] <= pc {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			return t.names[lo-1]
		}
	}
	return fmt.Sprintf("0x%08x", pc)
}

// stackLine renders one sample as a semicolon-separated frame path,
// outermost first. Frame entries are exact label addresses (call
// targets), so symbolization is function-granular; the innermost frame
// is the function containing the sampled PC. A sample outside any call
// frame falls back to the nearest label below the PC.
func stackLine(t *Symtab, s *Sample) string {
	if len(s.Stack) == 0 {
		return t.Lookup(s.PC)
	}
	parts := make([]string, len(s.Stack))
	for i, entry := range s.Stack {
		parts[i] = t.Lookup(entry)
	}
	return strings.Join(parts, ";")
}

// Folded renders the profile in folded-stack format — one
// "frame;frame;leaf count" line per distinct stack, sorted
// lexicographically — the input format of flamegraph generators
// (flamegraph.pl, speedscope, inferno).
func (p *Profile) Folded(t *Symtab) string {
	counts := make(map[string]uint64)
	for i := range p.Samples {
		counts[stackLine(t, &p.Samples[i])]++
	}
	lines := make([]string, 0, len(counts))
	for k := range counts {
		lines = append(lines, k)
	}
	sort.Strings(lines)
	var sb strings.Builder
	for _, k := range lines {
		fmt.Fprintf(&sb, "%s %d\n", k, counts[k])
	}
	return sb.String()
}

// Hotspot is one function's sample counts: Self counts samples whose
// innermost frame is the function, Total counts samples with the
// function anywhere on the stack (inclusive time).
type Hotspot struct {
	Name  string
	Self  uint64
	Total uint64
}

// Hotspots aggregates the profile per function, ordered by Self count
// descending (ties by name), the conventional hotspot ranking.
func (p *Profile) Hotspots(t *Symtab) []Hotspot {
	self := make(map[string]uint64)
	total := make(map[string]uint64)
	var onStack []string // reused per sample for dedup
	for i := range p.Samples {
		s := &p.Samples[i]
		var leaf string
		if len(s.Stack) == 0 {
			leaf = t.Lookup(s.PC)
			onStack = append(onStack[:0], leaf)
		} else {
			onStack = onStack[:0]
			for _, entry := range s.Stack {
				onStack = append(onStack, t.Lookup(entry))
			}
			leaf = onStack[len(onStack)-1]
		}
		self[leaf]++
		// Count each function once per sample even if it recurs.
		seen := onStack
		sort.Strings(seen)
		prev := ""
		for j, name := range seen {
			if j == 0 || name != prev {
				total[name]++
			}
			prev = name
		}
	}
	out := make([]Hotspot, 0, len(total))
	for name, tot := range total {
		out = append(out, Hotspot{Name: name, Self: self[name], Total: tot})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// jsonProfile is the JSON artifact schema.
type jsonProfile struct {
	Interval uint64       `json:"interval"`
	TotalIns uint64       `json:"total_ins"`
	Samples  []jsonSample `json:"samples"`
}

type jsonSample struct {
	Index uint64   `json:"i"`
	PC    string   `json:"pc"`
	Leaf  string   `json:"leaf"`
	Stack []string `json:"stack,omitempty"`
}

// WriteJSON writes the profile as a JSON artifact with both raw PCs and
// symbolized frames. Output is deterministic (fixed field order, samples
// in virtual-time order).
func (p *Profile) WriteJSON(w io.Writer, t *Symtab) error {
	jp := jsonProfile{
		Interval: p.Interval,
		TotalIns: p.TotalIns,
		Samples:  make([]jsonSample, len(p.Samples)),
	}
	for i := range p.Samples {
		s := &p.Samples[i]
		js := jsonSample{
			Index: s.Index,
			PC:    fmt.Sprintf("0x%08x", s.PC),
		}
		if len(s.Stack) == 0 {
			js.Leaf = t.Lookup(s.PC)
		} else {
			js.Stack = make([]string, len(s.Stack))
			for j, entry := range s.Stack {
				js.Stack[j] = t.Lookup(entry)
			}
			js.Leaf = js.Stack[len(js.Stack)-1]
		}
		jp.Samples[i] = js
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(jp)
}
