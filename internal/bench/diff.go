package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"

	"superpin/internal/artifact"
	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/prof"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

// The differential matrix proves that every host-side tier changes no
// virtual result. A preset lists legs (runs of one benchmark, each with
// a mode, a tool and knob settings) and, for each leg, the earlier leg
// it must agree with. A failure names the first divergence on one line:
//
//	<preset> <bench> (<leg>): <path>: <ref> != <got>

// legMode is what executes a leg.
type legMode uint8

const (
	modeNative legMode = iota
	modePin
	modeSP
)

// legStore is a leg's artifact store. Warm (in-process) and disk-warm
// legs of one mode and tool share a store: the first populates it, the
// later ones read it. Each disk-warm leg opens a fresh store over the
// shared directory, so it reads only what earlier legs persisted.
type legStore uint8

const (
	storeCold legStore = iota
	storeWarm
	storeDisk
)

// profAuto as a profile interval samples about 500 times per run.
const profAuto = ^uint64(0)

// leg is one run of a benchmark.
type leg struct {
	mode legMode
	// tool is icount1, icount2, watch or watch-opaque ("" for native).
	tool        string
	noFastPath  bool
	noHotTier   bool
	noSA        bool
	sharedCache bool   // SuperPin shared code cache
	workers     int    // SuperPin host workers (0 = the core default)
	prof        uint64 // profile interval (0 = unprofiled)
	store       legStore
	metrics     bool // publish the run's counters to a private registry
}

func (l leg) String() string {
	s := []string{[...]string{"native", "pin", "sp"}[l.mode]}
	add := func(on bool, name string) {
		if on {
			s = append(s, name)
		}
	}
	add(l.tool != "", l.tool)
	add(l.noFastPath, "nofastpath")
	add(l.noHotTier, "nohottier")
	add(l.noSA, "nosa")
	add(l.sharedCache, "sharedcache")
	add(l.store == storeWarm, "warm")
	add(l.store == storeDisk, "disk-warm")
	add(l.workers != 0, fmt.Sprintf("workers=%d", l.workers))
	add(l.prof == profAuto, "prof")
	add(l.prof != 0 && l.prof != profAuto, fmt.Sprintf("prof=%d", l.prof))
	return strings.Join(s, " ")
}

// with returns l with the knobs d sets switched on or overridden; mode
// and tool stay l's.
func (l leg) with(d leg) leg {
	l.noFastPath = l.noFastPath || d.noFastPath
	l.noHotTier = l.noHotTier || d.noHotTier
	l.noSA = l.noSA || d.noSA
	l.sharedCache = l.sharedCache || d.sharedCache
	l.metrics = l.metrics || d.metrics
	l.workers = max(l.workers, d.workers)
	l.prof = max(l.prof, d.prof)
	l.store = max(l.store, d.store)
	return l
}

// applyCost switches the leg's tier knobs on in a cost model.
func (l leg) applyCost(c *pin.CostModel) {
	c.NoFastPath = c.NoFastPath || l.noFastPath
	c.NoHotTier = c.NoHotTier || l.noHotTier
	c.NoSA = c.NoSA || l.noSA
}

// knob is a setting whose legs may disagree on host-side counters.
type knob struct {
	name string
	of   func(leg) any
	// hostOnly are the result fields (host-side work, never a virtual
	// quantity) two legs that differ in this knob may disagree on.
	hostOnly []string
	// off are the serial-Pin counters a leg setting this boolean knob
	// must leave at zero: the tier it disables did not run.
	off []string
}

// Counter groups of pin.Stats and jit.CacheStats, as result paths.
var (
	sbIns        = []string{"Engine.SuperblockIns"}
	saveRegs     = []string{"Engine.PredSaveRegs"}
	saveCounters = []string{"Engine.PredSaveRegs", "Engine.HotIns", "Engine.HoistedSaves"}
	sealCounters = []string{"Engine.SASharedRuns", "Engine.SAPrivateRuns"}
	hotCounters  = []string{"Engine.HotPromotions", "Engine.HotIns", "Engine.HoistedSaves", "Engine.HotLinkHits"}
	warmCounters = []string{"Engine.WarmPromotions", "Engine.FirstPromoDispatch"}
	linkCounters = []string{"Cache.LinkHits", "Cache.LinkMisses", "Cache.LinkInvalidations"}
)

var knobs = []knob{
	{name: "nofastpath", of: func(l leg) any { return l.noFastPath },
		hostOnly: slices.Concat(sbIns, saveRegs, sealCounters, hotCounters, warmCounters, linkCounters),
		off:      slices.Concat(sbIns, sealCounters, hotCounters, linkCounters)},
	{name: "nosa", of: func(l leg) any { return l.noSA },
		hostOnly: slices.Concat(saveCounters, sealCounters),
		off:      sealCounters},
	{name: "nohottier", of: func(l leg) any { return l.noHotTier },
		hostOnly: slices.Concat(saveRegs, hotCounters, warmCounters, linkCounters),
		off:      hotCounters},
	{name: "store", of: func(l leg) any { return l.store },
		hostOnly: slices.Concat(sbIns, hotCounters, warmCounters, linkCounters)},
	{name: "prof", of: func(l leg) any { return l.prof }, hostOnly: []string{"Profile"}},
}

// legRow is one leg of a preset and how many rows back its reference
// leg is (0 for none), so row lists concatenate.
type legRow struct {
	leg  leg
	back int
}

// vary lays out, for each base leg, a reference leg and its variants
// (knob deltas applied with leg.with), each compared with the reference.
func vary(bases []leg, ref leg, variants ...leg) []legRow {
	var rows []legRow
	for _, b := range bases {
		rows = append(rows, legRow{b.with(ref), 0})
		for i, v := range variants {
			rows = append(rows, legRow{b.with(v), i + 1})
		}
	}
	return rows
}

// chain is vary with each leg compared with the one before it.
func chain(bases []leg, steps ...leg) []legRow {
	var rows []legRow
	for _, b := range bases {
		for i, s := range steps {
			rows = append(rows, legRow{b.with(s), min(i, 1)})
		}
	}
	return rows
}

// benchRun is one benchmark's built program, native run and the stores
// warm legs share.
type benchRun struct {
	cfg    Config
	spec   workload.Spec
	prog   *asm.Program
	native *core.NativeResult
	stores map[string]*artifact.Store
	dir    string // disk-warm cache directories, one per mode and tool
}

func newBenchRun(cfg Config, spec workload.Spec) (*benchRun, error) {
	spec = spec.Scaled(cfg.Scale)
	prog, err := spec.Build()
	if err != nil {
		return nil, err
	}
	native, err := core.RunNative(cfg.Kernel, prog, spec.NativeMemCost)
	if err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}
	return &benchRun{cfg: cfg, spec: spec, prog: prog, native: native,
		stores: map[string]*artifact.Store{}}, nil
}

// close removes the benchmark's cache directories.
func (b *benchRun) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// store returns the artifact store a leg runs on (nil when cold).
func (b *benchRun) store(l leg) (*artifact.Store, error) {
	key := fmt.Sprintf("%d-%s", l.mode, l.tool)
	switch l.store {
	case storeWarm:
		if b.stores[key] == nil {
			b.stores[key] = artifact.NewStore()
		}
		return b.stores[key], nil
	case storeDisk:
		if b.dir == "" {
			dir, err := os.MkdirTemp("", "superpin-diff-*")
			if err != nil {
				return nil, err
			}
			b.dir = dir
		}
		return artifact.NewDiskStore(filepath.Join(b.dir, key))
	}
	return nil, nil
}

// legRun is one executed leg.
type legRun struct {
	leg     leg
	native  *core.NativeResult
	pin     *core.PinResult
	sp      *core.Result
	events  []obs.Event
	out     uint64         // tool total, or watchpoint hits
	store   artifact.Stats // the leg's store after the run
	metrics *obs.Metrics
}

// result is the leg's whole result, by value.
func (r *legRun) result() any {
	switch r.leg.mode {
	case modeNative:
		return *r.native
	case modePin:
		return *r.pin
	}
	return *r.sp
}

// profile is the leg's guest profile (nil when unprofiled).
func (r *legRun) profile() *prof.Profile {
	return reflect.ValueOf(r.result()).FieldByName("Profile").Interface().(*prof.Profile)
}

// errorf prefixes a leg's failure with the leg.
func (r *legRun) errorf(format string, args ...any) error {
	return fmt.Errorf("(%s): "+format, append([]any{r.leg}, args...)...)
}

// runLeg executes one leg. SuperPin legs are always traced.
func (b *benchRun) runLeg(l leg) (*legRun, error) {
	r := &legRun{leg: l}
	interval := l.prof
	if interval == profAuto {
		interval = b.native.Ins/499 + 1
	}
	store, err := b.store(l)
	if err != nil {
		return nil, err
	}
	var factory core.ToolFactory
	var out func() uint64
	switch l.tool {
	case "icount1", "icount2":
		t := newTool(map[string]ToolKind{"icount1": Icount1, "icount2": Icount2}[l.tool])
		factory, out = t.Factory(), t.Total
	case "watch":
		w := tools.NewWatch(nil, workload.DataReg, workload.DataBase)
		factory, out = w.Factory(), w.Hits
	case "watch-opaque":
		w := tools.NewWatchOpaque(nil, workload.DataReg, workload.DataBase)
		factory, out = w.Factory(), w.Hits
	}
	switch l.mode {
	case modeNative:
		r.native = b.native
		if interval != 0 {
			r.native, err = core.RunNativeProf(b.cfg.Kernel, b.prog, b.spec.NativeMemCost, interval)
		}
	case modePin:
		cost := b.cfg.PinCost
		cost.MemSurcharge = b.spec.PinMemCost
		l.applyCost(&cost)
		r.pin, err = core.RunPinCached(b.cfg.Kernel, b.prog, factory, cost, interval, store)
	case modeSP:
		opts := spOptions(b.cfg, b.spec)
		l.applyCost(&opts.PinCost)
		opts.Workers, opts.ProfInterval, opts.SharedCodeCache = l.workers, interval, l.sharedCache
		opts.Artifacts = store
		opts.Trace = obs.NewTracer()
		if l.metrics {
			r.metrics = obs.NewMetrics()
			opts.Metrics = r.metrics
		}
		r.sp, err = core.Run(b.cfg.Kernel, b.prog, factory, opts)
		r.events = opts.Trace.Events()
	}
	if err != nil {
		return nil, err
	}
	if out != nil {
		r.out = out()
	}
	if store != nil {
		r.store = store.Stats()
	}
	return r, nil
}

// checkLeg verifies one leg on its own: a clean SuperPin run, nonzero
// virtual cycles, a tool total equal to the native instruction count,
// the trace invariants, and zero activity from every tier the leg
// switches off.
func (b *benchRun) checkLeg(r *legRun) error {
	if r.sp != nil && r.sp.Err != nil {
		return r.errorf("Err: <nil> != %v", r.sp.Err)
	}
	if r.pin != nil && r.pin.Time == 0 || r.sp != nil && r.sp.TotalTime == 0 {
		return r.errorf("no virtual cycles charged")
	}
	if strings.HasPrefix(r.leg.tool, "icount") && r.out != b.native.Ins {
		return r.errorf("tool total: %d != %d", b.native.Ins, r.out)
	}
	if r.sp != nil {
		if err := VerifyTrace(r.events, r.sp, b.native.Time); err != nil {
			return r.errorf("%v", err)
		}
	}
	for _, k := range knobs {
		if on, _ := k.of(r.leg).(bool); !on || r.pin == nil {
			continue
		}
		for _, path := range k.off {
			if f := field(reflect.ValueOf(*r.pin), path); !f.IsZero() {
				return r.errorf("%s: 0 != %v (%s leg reports tier activity)", path, f, k.name)
			}
		}
	}
	return nil
}

// compareLegs checks that got agrees with its reference leg ref: the
// whole result, minus the host-only counters of every knob the two legs
// differ in, then the tool output, trace stream and Figure 6 breakdown.
// Legs of different modes share only the guest profile.
func (b *benchRun) compareLegs(ref, got *legRun) error {
	if ref.leg.mode != got.leg.mode {
		type profiled struct{ Profile *prof.Profile }
		rp, gp := ref.profile(), got.profile()
		if path, a, g := firstDiff(profiled{rp}, profiled{gp}); path != "" {
			return got.errorf("%s: %s != %s", path, a, g)
		}
		if rp != nil {
			symtab := prof.NewSymtab(b.prog.Symbols)
			ra, ga := strings.Split(rp.Folded(symtab), "\n"), strings.Split(gp.Folded(symtab), "\n")
			if path, a, g := firstDiff(ra, ga); path != "" {
				return got.errorf("Folded%s: %s != %s", path, a, g)
			}
		}
		return nil
	}

	var hostOnly []string
	for _, k := range knobs {
		if k.of(ref.leg) != k.of(got.leg) {
			hostOnly = append(hostOnly, k.hostOnly...)
		}
	}
	if path, a, g := firstDiff(normalized(ref.result(), hostOnly), normalized(got.result(), hostOnly)); path != "" {
		return got.errorf("%s: %s != %s", path, a, g)
	}
	if ref.leg.tool == got.leg.tool && ref.out != got.out {
		return got.errorf("tool output: %d != %d", ref.out, got.out)
	}
	if ref.sp != nil {
		if path, a, g := diffEvents(ref.events, got.events); path != "" {
			return got.errorf("%s: %s != %s", path, a, g)
		}
		rn, rf, rs, rp := ref.sp.Breakdown(b.native.Time)
		gn, gf, gs, gp := got.sp.Breakdown(b.native.Time)
		if rn != gn || rf != gf || rs != gs || rp != gp {
			return got.errorf("Breakdown: (%d %d %d %d) != (%d %d %d %d)", rn, rf, rs, rp, gn, gf, gs, gp)
		}
	}
	// The analysis may only narrow the predicate save/restore set.
	if ref.pin != nil && ref.leg.noSA != got.leg.noSA {
		sa, nosa := ref, got
		if ref.leg.noSA {
			sa, nosa = got, ref
		}
		if m, l := sa.pin.Engine.PredSaveRegs, nosa.pin.Engine.PredSaveRegs; m > l {
			return got.errorf("Engine.PredSaveRegs: %d (%s) > %d (%s): liveness widened the save set",
				m, sa.leg, l, nosa.leg)
		}
	}
	return nil
}

// field returns the field of struct v at a dotted path, or an invalid
// Value when v's type has no such field.
func field(v reflect.Value, path string) reflect.Value {
	for _, name := range strings.Split(path, ".") {
		if v = v.FieldByName(name); !v.IsValid() {
			break
		}
	}
	return v
}

// normalized returns a copy of the result struct res with the fields
// at paths zeroed (paths its type lacks are skipped).
func normalized(res any, paths []string) any {
	v := reflect.New(reflect.TypeOf(res)).Elem()
	v.Set(reflect.ValueOf(res))
	for _, p := range paths {
		if f := field(v, p); f.IsValid() {
			f.SetZero()
		}
	}
	return v.Interface()
}

// firstDiff returns the path of the first field at which a and b
// differ, such as "Slices[97].CPUTime", and the two values there, or
// "" when they are deep-equal. Fields are visited in declaration order,
// elements in index order and map keys in sorted order, so the path is
// stable from run to run.
func firstDiff(a, b any) (path, av, bv string) {
	if reflect.DeepEqual(a, b) {
		return "", "", ""
	}
	if path, av, bv = diffValue(reflect.ValueOf(a), reflect.ValueOf(b), ""); path != "" {
		return path, av, bv
	}
	return "(value)", "?", "?"
}

func diffValue(a, b reflect.Value, path string) (string, string, string) {
	here := path
	if here == "" {
		here = "(value)"
	}
	// describe names a pointer by nilness, a slice or map by length.
	describe := func(v reflect.Value) string {
		switch {
		case v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface:
			return map[bool]string{true: "nil", false: "non-nil"}[v.IsNil()]
		case v.Kind() != reflect.Array && v.IsNil():
			return "nil"
		}
		return fmt.Sprintf("len %d", v.Len())
	}
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return here, fmt.Sprint(a.Type()), fmt.Sprint(b.Type())
	}
	switch a.Kind() {
	case reflect.Invalid:
		return "", "", ""
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return here, describe(a), describe(b)
			}
			return "", "", ""
		}
		return diffValue(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if p, av, bv := diffValue(a.Field(i), b.Field(i), name); p != "" {
				return p, av, bv
			}
		}
		return "", "", ""
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return here, describe(a), describe(b)
		}
		n := min(a.Len(), b.Len())
		for i := 0; i < n; i++ {
			if p, av, bv := diffValue(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p, av, bv
			}
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s[%d]", path, n), describe(a), describe(b)
		}
		return "", "", ""
	case reflect.Map:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			return here, describe(a), describe(b)
		}
		keys := a.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			kp := fmt.Sprintf("%s[%v]", path, k)
			if !b.MapIndex(k).IsValid() {
				return kp, fmt.Sprint(a.MapIndex(k)), "<absent>"
			}
			if p, av, bv := diffValue(a.MapIndex(k), b.MapIndex(k), kp); p != "" {
				return p, av, bv
			}
		}
		return "", "", ""
	}
	if fmt.Sprint(a) != fmt.Sprint(b) { // scalars
		return here, fmt.Sprint(a), fmt.Sprint(b)
	}
	return "", "", ""
}

// diffEvents returns the first differing event of two trace streams as
// "trace[i]" with each side's kind, virtual time and PID.
func diffEvents(a, b []obs.Event) (path, av, bv string) {
	str := func(evs []obs.Event, i int) string {
		if i >= len(evs) {
			return "<end>"
		}
		return fmt.Sprintf("%v t=%d pid=%d", evs[i].Kind, evs[i].Time, evs[i].PID)
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	if i == len(a) && i == len(b) {
		return "", "", ""
	}
	if av, bv = str(a, i), str(b, i); av == bv { // differs in another field
		av, bv = fmt.Sprintf("%+v", a[i]), fmt.Sprintf("%+v", b[i])
	}
	return fmt.Sprintf("trace[%d]", i), av, bv
}

// Counter is one named engagement counter of a DiffReport.
type Counter struct {
	Name  string
	Value uint64
}

func (c Counter) String() string { return fmt.Sprintf("%s=%d", c.Name, c.Value) }

// DiffReport is one benchmark's outcome under one differential preset:
// every leg agreed with its reference and the tier under test engaged.
type DiffReport struct {
	Name string
	Ins  uint64 // guest instruction count
	Legs int
	// PinCycles and SPCycles are the first serial Pin and SuperPin legs'
	// runtimes; Slices and Events, the first SuperPin leg's.
	PinCycles, SPCycles kernel.Cycles
	Slices, Events      int
	Engaged             []Counter // evidence the tier under test ran
}

// Counter returns the named engagement counter (0 when absent).
func (r *DiffReport) Counter(name string) uint64 {
	for _, c := range r.Engaged {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// DiffPreset is one row of the differential matrix: the legs to run,
// in order, each with its reference, and the check that the tier under
// test really ran.
type DiffPreset struct {
	Name  string
	Title string
	// Checks lists the equalities and invariants the preset enforces.
	Checks []string
	rows   []legRow
	// minSlices is the fewest slices the first SuperPin leg must run.
	minSlices int
	// engaged, when non-nil, checks that the tier under test ran on one
	// benchmark, and returns the counters that show it.
	engaged func(cfg Config, runs []*legRun) ([]Counter, error)
}

// LookupDiff returns the differential preset with the given name.
func LookupDiff(name string) (*DiffPreset, bool) {
	for _, p := range diffPresets {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}

// Run runs the preset's legs in declared order on each configured
// benchmark (benchmarks fan out over cfg.Workers), then checks them.
func (p *DiffPreset) Run(cfg Config) ([]*DiffReport, error) {
	cfg.normalize()
	// A tier a preset varies is each leg's own to set: a global switch-off
	// would otherwise turn every reference leg into its variant.
	for _, row := range p.rows {
		c, l := &cfg.PinCost, row.leg
		c.NoFastPath, c.NoHotTier = c.NoFastPath && !l.noFastPath, c.NoHotTier && !l.noHotTier
		c.NoSA = c.NoSA && !l.noSA
	}
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	return runIndexed(cfg.Workers, len(specs), func(i int) (*DiffReport, error) {
		b, err := newBenchRun(cfg, specs[i])
		if err != nil {
			return nil, p.errorf(specs[i].Name, err)
		}
		defer b.close()
		runs := make([]*legRun, len(p.rows))
		for j, row := range p.rows {
			if runs[j], err = b.runLeg(row.leg); err != nil {
				return nil, p.errorf(specs[i].Name, fmt.Errorf("(%s): %w", row.leg, err))
			}
		}
		return p.check(b, runs)
	})
}

// check verifies each leg on its own and against its reference, in
// declared order, then the preset's engagement.
func (p *DiffPreset) check(b *benchRun, runs []*legRun) (*DiffReport, error) {
	rep := &DiffReport{Name: b.spec.Name, Ins: b.native.Ins, Legs: len(runs)}
	for i, r := range runs {
		err := b.checkLeg(r)
		if back := p.rows[i].back; err == nil && back > 0 {
			err = b.compareLegs(runs[i-back], r)
		}
		if err != nil {
			return nil, p.errorf(b.spec.Name, err)
		}
		if r.pin != nil && rep.PinCycles == 0 {
			rep.PinCycles = r.pin.Time
		}
		if r.sp != nil && rep.SPCycles == 0 {
			rep.SPCycles, rep.Slices, rep.Events = r.sp.TotalTime, len(r.sp.Slices), len(r.events)
			if rep.Slices < p.minSlices {
				return nil, p.errorf(b.spec.Name, r.errorf("Slices: len %d, want at least %d", rep.Slices, p.minSlices))
			}
		}
	}
	var err error
	if p.engaged != nil {
		rep.Engaged, err = p.engaged(b.cfg, runs)
	}
	if err != nil {
		return nil, p.errorf(b.spec.Name, err)
	}
	return rep, nil
}

// errorf prefixes a failure with the preset and benchmark.
func (p *DiffPreset) errorf(bench string, err error) error {
	return fmt.Errorf("%s %s %w", p.Name, bench, err)
}

// find returns the last run of the declared leg l.
func find(runs []*legRun, l leg) *legRun {
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].leg == l {
			return runs[i]
		}
	}
	panic(fmt.Sprintf("bench: no %s leg", l))
}

func pinLeg(tool string) leg { return leg{mode: modePin, tool: tool} }
func spLeg(tool string) leg  { return leg{mode: modeSP, tool: tool} }

var (
	icountTools = []string{"icount1", "icount2"}
	// icountLegs are serial Pin and SuperPin under both counting tools.
	icountLegs = []leg{pinLeg("icount1"), pinLeg("icount2"), spLeg("icount1"), spLeg("icount2")}
	// stressLegs split SuperPin's two cross-slice surfaces: icount1 merges
	// the profiler's per-slice sample streams, icount2 shares one
	// barrier-published code cache.
	stressLegs = []leg{{mode: modeSP, tool: "icount1", prof: 997}, {mode: modeSP, tool: "icount2", sharedCache: true}}
)

// diffPresets is the differential matrix, one row per preset.
var diffPresets = []*DiffPreset{
	{
		Name:  "obssmoke",
		Title: "Observability smoke: trace invariants per benchmark",
		Checks: []string{
			"per-track timestamps non-decreasing",
			"sleep/wake and lifecycle spans balanced per process",
			"every slice has spawn <= detect <= merge",
			"breakdown reconstructed from trace == Result.Breakdown",
			"tool total equals the native instruction count",
		},
		rows:      []legRow{{spLeg("icount1"), 0}},
		minSlices: 1,
	},
	{
		Name:  "fastpathdiff",
		Title: "Fast-path differential: fast vs -nofastpath, identical virtual results",
		Checks: []string{
			"serial Pin result identical (cycles, ins, exit, stdout, stats modulo host-only counters)",
			"SuperPin result deep-equal (slices, stats, breakdown, stdout)",
			"SuperPin trace event streams identical",
			"trace invariants hold in both modes",
			"-nofastpath runs report zero fast-path activity",
			"fast runs link traces; icount2 runs superblocks, icount1 none",
		},
		rows: vary(icountLegs, leg{noFastPath: true}, leg{}),
		engaged: func(cfg Config, runs []*legRun) (cs []Counter, err error) {
			for _, tool := range icountTools {
				r := find(runs, pinLeg(tool))
				hits, sb := r.pin.Cache.LinkHits, r.pin.Engine.SuperblockIns
				cs = append(cs, Counter{tool + ".link_hits", hits}, Counter{tool + ".sb_ins", sb})
				switch {
				case hits == 0:
					return nil, r.errorf("Cache.LinkHits: 0: no trace was ever linked")
				case (sb == 0) == (tool == "icount2"):
					// icount1 instruments every instruction; icount2
					// leaves call-free block tails to batch.
					return nil, r.errorf("Engine.SuperblockIns: %d: want icount2 > 0, icount1 0", sb)
				}
			}
			return cs, nil
		},
	},
	{
		Name:  "sadiff",
		Title: "Static-analysis differential: SA vs -nosa, identical virtual results",
		Checks: []string{
			"serial Pin result identical (cycles, ins, exit, stdout, stats modulo host-only counters)",
			"SuperPin result deep-equal (slices, stats, breakdown, stdout)",
			"SuperPin trace event streams identical",
			"trace invariants hold in both modes",
			"liveness never widens the predicate save/restore set",
			"-nosa runs report zero SA sealing",
			"icount2 seals superblocks over the shared predecode",
			"declared and opaque watchpoints (serial Pin) and the SuperPin watchpoint (workers 1) count the same hits",
		},
		rows: slices.Concat(vary(icountLegs, leg{noSA: true}, leg{}),
			vary([]leg{pinLeg("watch"), pinLeg("watch-opaque")}, leg{noSA: true}, leg{}),
			vary([]leg{spLeg("watch")}, leg{noSA: true, workers: 1}, leg{workers: 1})),
		engaged: func(cfg Config, runs []*legRun) (cs []Counter, err error) {
			for _, tool := range icountTools {
				sa, ref := find(runs, pinLeg(tool)), find(runs, pinLeg(tool).with(leg{noSA: true}))
				e := sa.pin.Engine
				cs = append(cs, Counter{tool + ".shared_runs", e.SASharedRuns},
					Counter{tool + ".saved_regs", e.PredSaveRegs},
					Counter{tool + ".saved_regs_nosa", ref.pin.Engine.PredSaveRegs})
				// icount1 instruments every instruction, so only the
				// block-granularity tool leaves call-free runs to seal.
				if !cfg.PinCost.NoFastPath && tool == "icount2" && e.SASharedRuns == 0 {
					return nil, sa.errorf("Engine.SASharedRuns: 0: no superblock sealed over the shared predecode")
				}
			}
			watch := find(runs, pinLeg("watch"))
			for _, l := range []leg{pinLeg("watch-opaque"), spLeg("watch").with(leg{workers: 1})} {
				if r := find(runs, l); r.out != watch.out {
					return nil, r.errorf("hits: %d != %d (%s)", watch.out, r.out, watch.leg)
				}
			}
			return append(cs, Counter{"watch.hits", watch.out},
				Counter{"watch.saved_regs", watch.pin.Engine.PredSaveRegs},
				Counter{"watch.saved_regs_nosa", find(runs, pinLeg("watch").with(leg{noSA: true})).pin.Engine.PredSaveRegs}), nil
		},
	},
	{
		Name:  "profdiff",
		Title: "Profile differential: native vs serial Pin vs SuperPin-merged, fast and -nofastpath",
		Checks: []string{
			"profiling charged zero virtual cycles: native result identical profiled and unprofiled",
			"serial Pin profile identical to native (fast and -nofastpath)",
			"SuperPin merged profile identical to native (fast and -nofastpath)",
			"folded stacks byte-identical across all five modes",
			"profiling changed no SuperPin result (whole result, minus the profile)",
			"samples carry stack frames; the merge spans at least two slices",
		},
		// The profiled native leg is the reference of every profiled leg;
		// the unprofiled SuperPin leg compares with the profiled one.
		rows: []legRow{
			{leg{mode: modeNative}, 0},
			{leg{mode: modeNative, prof: profAuto}, 1},
			{leg{mode: modePin, tool: "icount1", prof: profAuto}, 1},
			{leg{mode: modePin, tool: "icount1", prof: profAuto, noFastPath: true}, 2},
			{leg{mode: modeSP, tool: "icount1", prof: profAuto}, 3},
			{leg{mode: modeSP, tool: "icount1", prof: profAuto, noFastPath: true}, 4},
			{spLeg("icount1"), 2},
		},
		minSlices: 2,
		engaged: func(_ Config, runs []*legRun) ([]Counter, error) {
			native := runs[1]
			p := native.native.Profile
			maxStack := 0
			for _, s := range p.Samples {
				maxStack = max(maxStack, len(s.Stack))
			}
			if maxStack == 0 { // also when there are no samples
				return nil, native.errorf("Profile.Samples: len %d, none with a shadow-stack frame", len(p.Samples))
			}
			return []Counter{{"interval", p.Interval}, {"samples", uint64(len(p.Samples))},
				{"max_stack", uint64(maxStack)}}, nil
		},
	},
	{
		Name:  "pardiff",
		Title: "Host-parallelism differential: 1/2/4/8 workers, identical virtual results",
		Checks: []string{
			"SuperPin result deep-equal at 1/2/4/8 workers (cycles, slices, stats, stdout, profile)",
			"SuperPin result deep-equal with -nosa at 1 and 4 workers",
			"trace event streams byte-identical at every worker count",
			"breakdown quadruple identical at every worker count",
			"tool totals equal the native instruction count in every run",
			"trace invariants hold at every worker count",
			"at least two slices, so workers had slices to share",
		},
		rows: vary(stressLegs, leg{workers: 1}, leg{workers: 2}, leg{workers: 4}, leg{workers: 8},
			leg{noSA: true, workers: 1}, leg{noSA: true, workers: 4}),
		minSlices: 2,
	},
	{
		Name:  "jitdiff",
		Title: "Hot-tier differential: hot vs -nohottier, identical virtual results",
		Checks: []string{
			"serial Pin result identical (cycles, ins, exit, stdout, stats modulo host-only counters)",
			"SuperPin result deep-equal at workers 1 and 4 (slices, stats, breakdown, stdout)",
			"SuperPin trace event streams identical in all four runs",
			"trace invariants hold in both modes",
			"-nohottier runs report zero hot-tier activity",
			"hot runs actually promote on dispatch-heavy benchmarks",
		},
		// The hot 1-worker SuperPin leg publishes metrics: its slice
		// engines' hot activity is visible nowhere else.
		rows: append(vary([]leg{pinLeg("icount1"), pinLeg("icount2")}, leg{noHotTier: true}, leg{}),
			vary([]leg{spLeg("icount1"), spLeg("icount2")}, leg{noHotTier: true, workers: 1},
				leg{workers: 1, metrics: true}, leg{noHotTier: true, workers: 4}, leg{workers: 4})...),
		engaged: func(cfg Config, runs []*legRun) (cs []Counter, err error) {
			for _, tool := range icountTools {
				hot, sp := find(runs, pinLeg(tool)), find(runs, spLeg(tool).with(leg{workers: 1, metrics: true}))
				e := hot.pin.Engine
				cs = append(cs, Counter{tool + ".promos", e.HotPromotions},
					Counter{tool + ".sp_promos", sp.metrics.Counter("pin.hot.promotions")},
					Counter{tool + ".hot_ins", e.HotIns}, Counter{tool + ".hot_link_hits", e.HotLinkHits},
					Counter{tool + ".sp_hoisted", sp.metrics.Counter("pin.hot.hoisted_saves")})
				// Promotion is driven by per-trace dispatch counts, so
				// demand it only where a hot trace must exist.
				if !cfg.PinCost.NoFastPath && e.Dispatches >= 4096 && e.HotPromotions == 0 {
					return nil, hot.errorf("Engine.HotPromotions: 0 after %d dispatches", e.Dispatches)
				}
			}
			return cs, nil
		},
	},
	{
		Name:  "cachediff",
		Title: "Artifact-cache differential: cold vs warm vs disk-warm, identical virtual results",
		Checks: []string{
			"serial Pin result identical cold vs warm vs disk-warm (cycles, ins, exit, stdout, stats modulo host-only counters)",
			"SuperPin result deep-equal cold vs warm at workers 1 and 4",
			"SuperPin trace event streams identical in all runs",
			"warm runs hit the store (predecode + analysis) instead of recomputing",
			"disk-warm runs hydrate from the directory with zero recomputation",
			"warm runs promote at compile time when the cold run promoted at all",
		},
		// Each store is populated by its first leg and read by the second.
		rows: append(vary([]leg{pinLeg("icount1"), pinLeg("icount2")}, leg{},
			leg{store: storeWarm}, leg{store: storeWarm}, leg{store: storeDisk}, leg{store: storeDisk}),
			vary([]leg{spLeg("icount1"), spLeg("icount2")}, leg{workers: 1},
				leg{workers: 1, store: storeWarm}, leg{workers: 1, store: storeWarm},
				leg{workers: 4}, leg{workers: 4, store: storeWarm}, leg{workers: 4, store: storeWarm})...),
		engaged: func(_ Config, runs []*legRun) (cs []Counter, err error) {
			for _, tool := range icountTools {
				cold, warm := find(runs, pinLeg(tool)), find(runs, pinLeg(tool).with(leg{store: storeWarm}))
				disk := find(runs, pinLeg(tool).with(leg{store: storeDisk}))
				sp := find(runs, spLeg(tool).with(leg{workers: 4, store: storeWarm}))
				ce, we, ws, ds := cold.pin.Engine, warm.pin.Engine, warm.store, disk.store
				switch {
				case ws.PredecodeHits == 0 || ws.SAHits == 0:
					return nil, warm.errorf("store hits: predecode %d, analysis %d: the warm run recomputed",
						ws.PredecodeHits, ws.SAHits)
				case ds.DiskHits == 0 || ds.PredecodeComputes != 0 || ds.SAComputes != 0:
					return nil, disk.errorf("disk hits %d, computes %d+%d: the run recomputed instead of hydrating",
						ds.DiskHits, ds.PredecodeComputes, ds.SAComputes)
				case sp.store.PredecodeComputes != 1 || sp.store.SAComputes != 1:
					return nil, sp.errorf("computes %d+%d, want 1+1: SuperPin runs recomputed shared artifacts",
						sp.store.PredecodeComputes, sp.store.SAComputes)
				// The warm start only matters when the workload is hot
				// enough to promote; then the seed must fire at compile
				// time, before the cold run earned its first promotion.
				case ce.HotPromotions > 0 && we.WarmPromotions == 0:
					return nil, warm.errorf("Engine.WarmPromotions: 0, but the cold run promoted %d traces", ce.HotPromotions)
				case ce.HotPromotions > 0 && we.FirstPromoDispatch >= ce.FirstPromoDispatch:
					return nil, warm.errorf("Engine.FirstPromoDispatch: %d (cold) <= %d (warm): no warm start",
						ce.FirstPromoDispatch, we.FirstPromoDispatch)
				}
				cs = append(cs, Counter{tool + ".warm_promos", we.WarmPromotions},
					Counter{tool + ".ttfp_cold", ce.FirstPromoDispatch}, Counter{tool + ".ttfp_warm", we.FirstPromoDispatch},
					Counter{tool + ".disk_hits", ds.DiskHits})
			}
			return cs, nil
		},
	},
}
