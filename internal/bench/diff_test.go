package bench

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"superpin/internal/core"
	"superpin/internal/obs"
	"superpin/internal/prof"
)

// runPreset runs one differential preset over benchmarks and fails the
// test with the matrix's one-line first-divergence report.
func runPreset(t *testing.T, cfg Config, name string, benchmarks ...string) []*DiffReport {
	t.Helper()
	p, ok := LookupDiff(name)
	if !ok {
		t.Fatalf("no differential preset %q", name)
	}
	cfg.Benchmarks = benchmarks
	reports, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(benchmarks) {
		t.Fatalf("got %d reports for %d benchmarks", len(reports), len(benchmarks))
	}
	hasPin := slices.ContainsFunc(p.rows, func(r legRow) bool { return r.leg.mode == modePin })
	for _, r := range reports {
		if r.Ins == 0 || r.Legs == 0 || r.SPCycles == 0 || r.Events == 0 || hasPin && r.PinCycles == 0 {
			t.Fatalf("%s: empty report %+v", r.Name, r)
		}
	}
	return reports
}

// TestRunObsSmoke: traced SuperPin runs satisfy every trace invariant,
// including exact breakdown agreement.
func TestRunObsSmoke(t *testing.T) {
	runPreset(t, obsTestConfig(), "obssmoke", "gzip", "gcc", "mgrid")
}

// TestRunFastPathDiff: serial Pin and SuperPin with the dispatch fast
// paths on and off agree on every virtual result, and the fast runs
// link traces and batch superblocks.
func TestRunFastPathDiff(t *testing.T) {
	runPreset(t, obsTestConfig(), "fastpathdiff", "gzip", "gcc", "mgrid")
}

// TestRunSADiff: the load-time static analysis on and off agree on
// every virtual result under the counting and watchpoint tools, the
// analysis seals shared superblocks, and the watchpoints agree on hits.
func TestRunSADiff(t *testing.T) {
	runPreset(t, obsTestConfig(), "sadiff", "gzip", "gcc", "mgrid")
}

// TestRunProfDiff: native, serial Pin and merged SuperPin profiles are
// identical, and profiling changes no virtual result.
func TestRunProfDiff(t *testing.T) {
	runPreset(t, obsTestConfig(), "profdiff", "gzip", "gcc", "mgrid")
}

// TestRunParDiff: SuperPin at 1, 2, 4 and 8 host workers, and without
// the static analysis at 1 and 4, is byte-identical — results, trace
// streams, breakdowns.
func TestRunParDiff(t *testing.T) {
	runPreset(t, obsTestConfig(), "pardiff", "gzip", "mgrid")
}

// TestRunJITDiff: the second-tier trace compiler on and off agrees on
// every virtual result, and across the suite each tool promotes, icount2
// runs register-cached code and boundary-probe spills get hoisted.
func TestRunJITDiff(t *testing.T) {
	reports := runPreset(t, obsTestConfig(), "jitdiff", "gzip", "gcc", "mgrid")
	for _, tool := range icountTools {
		var promos, hotIns, hoisted uint64
		for _, r := range reports {
			promos += r.Counter(tool+".promos") + r.Counter(tool+".sp_promos")
			hotIns += r.Counter(tool + ".hot_ins")
			hoisted += r.Counter(tool + ".sp_hoisted")
		}
		if promos == 0 {
			t.Errorf("%s: no trace was promoted across the whole suite", tool)
		}
		// icount1 instruments every instruction, so there are no
		// superblocks to register-cache.
		if tool == "icount2" && hotIns == 0 {
			t.Errorf("%s: no instructions executed register-cached", tool)
		}
		if hoisted == 0 {
			t.Errorf("%s: no boundary-probe spill was ever hoisted", tool)
		}
	}
}

// TestRunCacheDiffSmall: cold, warm and disk-warm runs agree on every
// virtual result, and the warm runs hit the store.
func TestRunCacheDiffSmall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	cfg.Workers = 1
	runPreset(t, cfg, "cachediff", "gzip", "mgrid")
}

type diffInner struct{ X int }

type diffOuter struct {
	A  int
	In diffInner
	S  []int
	M  map[string]int
	P  *int
}

func TestFirstDiff(t *testing.T) {
	one := 1
	base := func() diffOuter {
		return diffOuter{A: 1, In: diffInner{X: 1}, S: []int{1, 2}, M: map[string]int{"a": 1, "b": 2}}
	}
	for _, tc := range []struct {
		name         string
		mutate       func(*diffOuter)
		path, av, bv string
	}{
		{"equal", func(*diffOuter) {}, "", "", ""},
		{"nested struct", func(o *diffOuter) { o.In.X = 2 }, "In.X", "1", "2"},
		{"slice length", func(o *diffOuter) { o.S = append(o.S, 3) }, "S[2]", "len 2", "len 3"},
		{"slice element", func(o *diffOuter) { o.S[1] = 5 }, "S[1]", "2", "5"},
		{"map key", func(o *diffOuter) { delete(o.M, "b"); o.M["c"] = 2 }, "M[b]", "2", "<absent>"},
		{"nil vs non-nil pointer", func(o *diffOuter) { o.P = &one }, "P", "nil", "non-nil"},
	} {
		b := base()
		tc.mutate(&b)
		path, av, bv := firstDiff(base(), b)
		if path != tc.path || av != tc.av || bv != tc.bv {
			t.Errorf("%s: firstDiff = %q, %q, %q; want %q, %q, %q", tc.name, path, av, bv, tc.path, tc.av, tc.bv)
		}
	}
}

// TestFirstDivergenceMessage: two SuperPin results that differ in one
// slice's CPU time report that path on one line.
func TestFirstDivergenceMessage(t *testing.T) {
	mk := func() *core.Result {
		r := &core.Result{TotalTime: 900000}
		for i := 1; i <= 60; i++ {
			r.Slices = append(r.Slices, core.SliceInfo{Num: i, Ins: 3000, CPUTime: 50302})
		}
		return r
	}
	p, _ := LookupDiff("pardiff")
	ref := &legRun{leg: p.rows[0].leg, sp: mk()}
	got := &legRun{leg: p.rows[2].leg, sp: mk()}
	got.sp.Slices[53].CPUTime = 50342
	b := &benchRun{native: &core.NativeResult{}}
	err := p.errorf("gzip", b.compareLegs(ref, got))
	want := "pardiff gzip (sp icount1 workers=4 prof=997): Slices[53].CPUTime: 50302 != 50342"
	if err == nil || err.Error() != want {
		t.Fatalf("got %v\nwant %s", err, want)
	}
}

// deepCopy returns a copy of v sharing no pointers, slices or maps
// with it.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		c := reflect.New(v.Type().Elem())
		c.Elem().Set(deepCopy(v.Elem()))
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		for i := 0; i < v.NumField(); i++ {
			if c.Field(i).CanSet() {
				c.Field(i).Set(deepCopy(v.Field(i)))
			}
		}
		return c
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	}
	return v
}

// cloneRun copies a leg run, results and trace included, as a run of
// leg l.
func cloneRun(r *legRun, l leg) *legRun {
	c := *r
	c.leg = l
	c.native, _ = deepCopy(reflect.ValueOf(r.native)).Interface().(*core.NativeResult)
	c.pin, _ = deepCopy(reflect.ValueOf(r.pin)).Interface().(*core.PinResult)
	c.sp, _ = deepCopy(reflect.ValueOf(r.sp)).Interface().(*core.Result)
	c.events = slices.Clone(r.events)
	return &c
}

// resultValue is the addressable result struct of a leg run.
func resultValue(r *legRun) reflect.Value {
	switch r.leg.mode {
	case modeNative:
		return reflect.ValueOf(r.native).Elem()
	case modePin:
		return reflect.ValueOf(r.pin).Elem()
	}
	return reflect.ValueOf(r.sp).Elem()
}

// leafPaths lists the integer fields reachable from v — through
// structs, non-nil pointers and the middle element of each non-empty
// slice — as paths like "Slices[20].CPUTime".
func leafPaths(v reflect.Value, path string) []string {
	join := func(name string) string {
		if path == "" {
			return name
		}
		return path + "." + name
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		return leafPaths(v.Elem(), path)
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				out = append(out, leafPaths(v.Field(i), join(v.Type().Field(i).Name))...)
			}
		}
		return out
	case reflect.Slice:
		if v.Len() == 0 {
			return nil
		}
		mid := v.Len() / 2
		return leafPaths(v.Index(mid), fmt.Sprintf("%s[%d]", path, mid))
	case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint32, reflect.Uint64:
		return []string{path}
	}
	return nil
}

// at returns the value at a leafPaths path below v.
func at(v reflect.Value, path string) reflect.Value {
	for _, part := range strings.Split(path, ".") {
		name, idx, indexed := strings.Cut(part, "[")
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		v = v.FieldByName(name)
		for indexed {
			var i int
			fmt.Sscanf(idx, "%d]", &i)
			v = v.Index(i)
			_, idx, indexed = strings.Cut(idx, "[")
		}
	}
	return v
}

// bump adds one to an integer value and returns the old and new values.
func bump(v reflect.Value) (string, string) {
	old := fmt.Sprint(v)
	if v.CanUint() {
		v.SetUint(v.Uint() + 1)
	} else {
		v.SetInt(v.Int() + 1)
	}
	return old, fmt.Sprint(v)
}

// The expectations below are written out independently of the knob
// table, so widening a knob's host-only set or shrinking its tier-off
// set fails TestDiffMatrixMutations.
var (
	hotStats  = []string{"Engine.HotPromotions", "Engine.HotIns", "Engine.HoistedSaves", "Engine.HotLinkHits"}
	warmStats = []string{"Engine.WarmPromotions", "Engine.FirstPromoDispatch"}
	linkStats = []string{"Cache.LinkHits", "Cache.LinkMisses", "Cache.LinkInvalidations"}
	sealStats = []string{"Engine.SASharedRuns", "Engine.SAPrivateRuns"}

	// pinHostOnly are the only serial-Pin fields each preset's pairs
	// may disagree on.
	pinHostOnly = map[string][]string{
		"fastpathdiff": slices.Concat(hotStats, warmStats, linkStats, sealStats,
			[]string{"Engine.SuperblockIns", "Engine.PredSaveRegs"}),
		"sadiff":    slices.Concat(sealStats, []string{"Engine.PredSaveRegs", "Engine.HotIns", "Engine.HoistedSaves"}),
		"jitdiff":   slices.Concat(hotStats, warmStats, linkStats, []string{"Engine.PredSaveRegs"}),
		"cachediff": slices.Concat(hotStats, warmStats, linkStats, []string{"Engine.SuperblockIns"}),
	}
	// tierOff are the serial-Pin counters a leg with each tier switched
	// off must leave at zero.
	tierOff = map[string][]string{
		"nofastpath": slices.Concat(hotStats, linkStats, sealStats, []string{"Engine.SuperblockIns"}),
		"nohottier":  hotStats,
		"nosa":       sealStats,
	}
)

func declared(path string, hostOnly []string) bool {
	for _, h := range hostOnly {
		if path == h || strings.HasPrefix(path, h+".") {
			return true
		}
	}
	return false
}

// TestDiffMatrixMutations proves the matrix enforces every equality its
// presets promise. For every preset and every leg with a reference, the
// reference leg runs for real and the variant is its clone: each integer
// field of the variant's result is bumped in turn, and the matrix must
// report exactly that path, unless pinHostOnly (or a differing profile
// interval) lets the two legs disagree on it, in which case the bump
// must be ignored. Each tierOff counter of a tier-off leg is bumped too
// and must be reported, as must a trace event, the tool output and a
// leg's cycle count set to zero.
func TestDiffMatrixMutations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	cfg.TimesliceMSec = 40
	cfg.normalize()
	spec := mustSpec(t, "gzip")
	for _, p := range diffPresets {
		t.Run(p.Name, func(t *testing.T) {
			b, err := newBenchRun(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			// run executes a leg once, on first use.
			runs := map[int]*legRun{}
			run := func(i int) *legRun {
				if runs[i] == nil {
					if runs[i], err = b.runLeg(p.rows[i].leg); err != nil {
						t.Fatal(err)
					}
					if err := b.checkLeg(runs[i]); err != nil {
						t.Fatalf("clean leg: %v", err)
					}
				}
				return runs[i]
			}
			compared, ignored := 0, 0
			for i, row := range p.rows {
				// A Pin or SuperPin leg that charged no cycles is
				// reported even when its reference agrees.
				if row.leg.mode != modeNative {
					got := cloneRun(run(i), row.leg)
					at(resultValue(got), map[legMode]string{modePin: "Time", modeSP: "TotalTime"}[row.leg.mode]).SetZero()
					want := fmt.Sprintf("(%s): no virtual cycles charged", row.leg)
					if err := b.checkLeg(got); err == nil || err.Error() != want {
						t.Errorf("zero cycles: got %v, want %s", err, want)
					}
				}
				// Every counter the leg's switched-off tiers own is
				// checked at zero.
				for _, k := range knobs {
					if on, _ := k.of(row.leg).(bool); !on || row.leg.mode != modePin {
						continue
					}
					for _, path := range tierOff[k.name] {
						got := cloneRun(run(i), row.leg)
						was, now := bump(at(resultValue(got), path))
						err := b.checkLeg(got)
						if want := fmt.Sprintf("(%s): %s: %s != %s", row.leg, path, was, now); err == nil || !strings.HasPrefix(err.Error(), want) {
							t.Errorf("escape %s: got %v, want %s", path, err, want)
						}
					}
				}
				if row.back == 0 {
					continue
				}
				// A variant of another mode shares only the profile with
				// its reference, so it is a clone of its own run instead.
				ref := run(i - row.back)
				base, root := ref, resultValue(ref)
				var hostOnly []string
				if ref.leg.mode != row.leg.mode {
					base, root = run(i), reflect.ValueOf(struct{ Profile *prof.Profile }{ref.profile()})
				} else {
					if ref.leg.mode == modePin {
						hostOnly = pinHostOnly[p.Name]
					}
					if ref.leg.prof != row.leg.prof {
						hostOnly = append(hostOnly, "Profile")
					}
				}
				if err := b.compareLegs(ref, cloneRun(base, row.leg)); err != nil {
					t.Fatalf("clean variant differs: %v", err)
				}
				for _, path := range leafPaths(root, "") {
					got := cloneRun(base, row.leg)
					was, now := bump(at(resultValue(got), path))
					err := b.compareLegs(ref, got)
					switch {
					case declared(path, hostOnly) && path == "Engine.PredSaveRegs" && ref.leg.noSA != row.leg.noSA:
						// Host-only, but bounded by the monotone save-set check.
						if err != nil && !strings.Contains(err.Error(), "liveness widened the save set") {
							t.Errorf("%s %s: %v", row.leg, path, err)
						}
						ignored++
					case declared(path, hostOnly):
						if err != nil {
							t.Errorf("%s: host-only %s reported: %v", row.leg, path, err)
						}
						ignored++
					default:
						want := fmt.Sprintf("(%s): %s: %s != %s", row.leg, path, was, now)
						if err == nil || err.Error() != want {
							t.Errorf("got %v, want %s", err, want)
						}
						compared++
					}
				}
				if ref.sp != nil {
					got := cloneRun(ref, row.leg)
					k := len(got.events) / 2
					got.events[k].Time++
					e := ref.events[k]
					want := fmt.Sprintf("(%s): trace[%d]: %v t=%d pid=%d != %v t=%d pid=%d",
						row.leg, k, e.Kind, e.Time, e.PID, e.Kind, e.Time+1, e.PID)
					if err := b.compareLegs(ref, got); err == nil || err.Error() != want {
						t.Errorf("got %v, want %s", err, want)
					}
				}
				if ref.leg.tool != "" && ref.leg.mode == row.leg.mode {
					got := cloneRun(ref, row.leg)
					got.out++
					want := fmt.Sprintf("(%s): tool output: %d != %d", row.leg, ref.out, ref.out+1)
					if err := b.compareLegs(ref, got); err == nil || err.Error() != want {
						t.Errorf("got %v, want %s", err, want)
					}
				}
			}
			if p.Name == "obssmoke" {
				got := cloneRun(run(0), p.rows[0].leg)
				got.sp.MasterSleep++
				if err := b.checkLeg(got); err == nil || !strings.Contains(err.Error(), "reconstructed breakdown") {
					t.Errorf("trace/result mismatch not reported: %v", err)
				}
				return
			}
			if compared == 0 {
				t.Errorf("no compared field was exercised")
			}
			t.Logf("%d compared fields reported, %d host-only fields ignored", compared, ignored)
		})
	}
}

// TestDiffPresetOwnsVariedTier: a global tier switch-off does not reach
// the reference legs of a preset that varies that tier, so the preset
// still compares the tier on against off and sees it engage.
func TestDiffPresetOwnsVariedTier(t *testing.T) {
	for _, tc := range []struct {
		preset, counter string
		off             func(*Config)
	}{
		{"fastpathdiff", "icount2.link_hits", func(c *Config) { c.PinCost.NoFastPath = true }},
		{"sadiff", "icount2.shared_runs", func(c *Config) { c.PinCost.NoSA = true }},
	} {
		cfg := obsTestConfig()
		tc.off(&cfg)
		for _, r := range runPreset(t, cfg, tc.preset, "gzip") {
			if r.Counter(tc.counter) == 0 {
				t.Errorf("%s with the tier off globally: %s = 0, want the reference leg to run the tier", tc.preset, tc.counter)
			}
		}
	}
}

// TestDiffEventsReportsFirstEvent: a shorter trace reports the first
// missing event.
func TestDiffEventsReportsFirstEvent(t *testing.T) {
	a := []obs.Event{{Kind: obs.EvFork, Time: 5, PID: 2}, {Kind: obs.EvProcExit, Time: 9, PID: 2}}
	path, av, bv := diffEvents(a, a[:1])
	if path != "trace[1]" || bv != "<end>" || !strings.HasSuffix(av, " t=9 pid=2") {
		t.Fatalf("diffEvents = %q, %q, %q", path, av, bv)
	}
}
