package bench

import (
	"strings"
	"testing"
)

// testConfig runs a reduced-scale suite over a representative subset so
// the shape assertions stay fast.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.1
	// Scale-equivalent of the paper's 2-second timeslices (see
	// cmd/spbench's default): 2000 ms * 0.1.
	cfg.TimesliceMSec = 200
	cfg.Benchmarks = []string{"gcc", "mcf", "gzip", "crafty", "mgrid", "swim"}
	return cfg
}

// TestFig3Shape checks the paper's Figure 3 claims: traditional Pin with
// icount1 is roughly a 12X slowdown on average, and SuperPin runs the
// same instrumentation several times closer to native.
func TestFig3Shape(t *testing.T) {
	tbl, rs, err := Fig3(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != len(rs)+1 {
		t.Fatalf("table rows %d for %d results", tbl.NumRows(), len(rs))
	}
	pinAvg, spAvg, _ := Averages(rs)
	if pinAvg < 800 || pinAvg > 1600 {
		t.Fatalf("Pin icount1 average %.0f%%, want ~1200%% (paper: ~12X)", pinAvg)
	}
	if spAvg >= pinAvg/3 {
		t.Fatalf("SuperPin average %.0f%% not well below Pin %.0f%%", spAvg, pinAvg)
	}
	for _, r := range rs {
		if r.SPPct <= 100 {
			t.Fatalf("%s: SuperPin faster than native (%.0f%%)", r.Name, r.SPPct)
		}
		if r.PinPct <= r.SPPct {
			t.Fatalf("%s: Pin (%.0f%%) not slower than SuperPin (%.0f%%)", r.Name, r.PinPct, r.SPPct)
		}
	}
}

// TestFig4Shape checks Figure 4: speedups of several X, bounded by the
// 8 processors except for cache-locality outliers, with mcf the highest
// (paper: 11.2X while others reach 3-7X).
func TestFig4Shape(t *testing.T) {
	cfg := testConfig()
	_, rs, err := Fig4(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mcf, best float64
	bestName := ""
	for _, r := range rs {
		if r.Speedup < 2.5 || r.Speedup > 13 {
			t.Fatalf("%s: speedup %.2f outside plausible band", r.Name, r.Speedup)
		}
		if r.Name == "mcf" {
			mcf = r.Speedup
		}
		if r.Speedup > best {
			best, bestName = r.Speedup, r.Name
		}
		if r.Name != "mcf" && r.Speedup > 8.5 {
			t.Fatalf("%s: speedup %.2f exceeds the 8-processor bound without a locality excuse", r.Name, r.Speedup)
		}
	}
	if bestName != "mcf" {
		t.Fatalf("highest speedup is %s (%.2f), want the mcf outlier", bestName, best)
	}
	if mcf < 7 {
		t.Fatalf("mcf speedup %.2f, want the >7X cache-locality outlier", mcf)
	}
}

// TestFig5Shape checks Figure 5: icount2 under SuperPin approaches native
// (paper: 25%% average slowdown, 7%%-100%% range).
func TestFig5Shape(t *testing.T) {
	_, rs, err := Fig5(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, spAvg, _ := Averages(rs)
	if spAvg < 105 || spAvg > 180 {
		t.Fatalf("SuperPin icount2 average %.0f%%, want ~125%% (paper: ~25%% slowdown)", spAvg)
	}
	for _, r := range rs {
		if r.SPPct > 260 {
			t.Fatalf("%s: SuperPin icount2 %.0f%%, paper range tops out below 200%%", r.Name, r.SPPct)
		}
		// icount2 must beat icount1-style overheads decisively: Pin
		// icount2 stays within Figure 5's sub-1000%% axis (memory-bound
		// outliers like mcf run high, but below icount1 levels).
		if r.PinPct > 950 {
			t.Fatalf("%s: Pin icount2 %.0f%% implausibly high", r.Name, r.PinPct)
		}
	}
}

// TestFig6Shape checks Figure 6's structure for gcc: growing timeslices
// shrink fork-and-other overhead and master sleep but grow pipeline
// delay, with a sweet spot in between.
func TestFig6Shape(t *testing.T) {
	cfg := testConfig()
	_, rows, err := Fig6(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ForkOthers >= rows[i-1].ForkOthers {
			t.Fatalf("fork&others not decreasing: %.2f -> %.2f at %0.f ms",
				rows[i-1].ForkOthers, rows[i].ForkOthers, rows[i].TimesliceMSec)
		}
		if rows[i].Pipeline <= rows[i-1].Pipeline {
			t.Fatalf("pipeline delay not increasing: %.2f -> %.2f at %.0f ms",
				rows[i-1].Pipeline, rows[i].Pipeline, rows[i].TimesliceMSec)
		}
		if rows[i].Native != rows[0].Native {
			t.Fatal("native component must be constant")
		}
	}
	// Totals must stay in a sane band around native (instrumentation-
	// limited gcc: several X native, not tens), and the paper's net
	// claim must hold: larger timeslices reduce gcc's total runtime
	// (the lower overhead outweighs the extra pipeline delay).
	for _, r := range rows {
		if r.Total < r.Native || r.Total > 15*r.Native {
			t.Fatalf("total %.2f outside [native, 15x native]", r.Total)
		}
	}
	if rows[len(rows)-1].Total >= rows[0].Total {
		t.Fatalf("no net runtime reduction from larger timeslices: %.2f -> %.2f",
			rows[0].Total, rows[len(rows)-1].Total)
	}
}

// TestFig7Shape checks Figure 7's structure: performance improves
// dramatically up to the physical processor count and flattens beyond it.
func TestFig7Shape(t *testing.T) {
	cfg := testConfig()
	_, rows, err := Fig7(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Strictly improving up to the physical core count…
	for i := 1; i <= 3; i++ {
		if rows[i].Seconds >= rows[i-1].Seconds {
			t.Fatalf("runtime not monotone: %d slices %.2f -> %d slices %.2f",
				rows[i-1].MaxSlices, rows[i-1].Seconds, rows[i].MaxSlices, rows[i].Seconds)
		}
	}
	// 1 -> 8 slices should be a large improvement (several X)…
	if rows[0].Seconds/rows[3].Seconds < 3 {
		t.Fatalf("1->8 slices only improved %.2fx", rows[0].Seconds/rows[3].Seconds)
	}
	// …while beyond the physical cores (12, 16 via hyperthreading) the
	// curve saturates: close to the 8-slice time, slightly better or —
	// when the master is forced to share its core — slightly worse.
	for _, i := range []int{4, 5} {
		if r := rows[i].Seconds / rows[3].Seconds; r < 0.6 || r > 1.2 {
			t.Fatalf("%d slices at %.2fx of the 8-slice time; expected saturation",
				rows[i].MaxSlices, r)
		}
	}
}

// TestSigStatsShape checks the Section 4.4 statistics: the quick detector
// filters out all but a small percentage of checks (paper: ~2%), and
// stack checks are rarer still.
func TestSigStatsShape(t *testing.T) {
	cfg := testConfig()
	cfg.Benchmarks = []string{"gzip", "mcf", "mgrid"}
	_, rows, err := SigStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Quick == 0 {
			t.Fatalf("%s: no quick checks", r.Name)
		}
		if r.FullPerQuick > 10 {
			t.Fatalf("%s: full/quick = %.1f%%, want a small percentage (paper ~2%%)", r.Name, r.FullPerQuick)
		}
		if r.Stack > r.Full {
			t.Fatalf("%s: stack checks (%d) exceed full checks (%d)", r.Name, r.Stack, r.Full)
		}
	}
}

func TestRunSuiteRejectsUnknownBenchmark(t *testing.T) {
	cfg := testConfig()
	cfg.Benchmarks = []string{"nonesuch"}
	if _, err := RunSuite(cfg, Icount1); err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("err = %v", err)
	}
}

func TestToolKindString(t *testing.T) {
	if Icount1.String() != "icount1" || Icount2.String() != "icount2" {
		t.Fatal("ToolKind strings wrong")
	}
}

// TestRunBenchmarkNoFastPath: the harness-level escape hatch disables the
// fast paths in every run and zeroes the host counters, while the
// measured virtual cycles stay identical to a default run.
func TestRunBenchmarkNoFastPath(t *testing.T) {
	cfg := obsTestConfig()
	spec := mustSpec(t, "gzip")
	fast, err := RunBenchmark(cfg, spec, Icount2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoFastPath = true
	slow, err := RunBenchmark(cfg, spec, Icount2)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Native != slow.Native || fast.Pin != slow.Pin || fast.SP != slow.SP || fast.Ins != slow.Ins {
		t.Fatalf("virtual results differ: fast %+v vs nofast %+v", fast, slow)
	}
	if fast.Host.LinkHits == 0 || fast.Host.SuperblockIns == 0 {
		t.Fatalf("default run exercised no fast-path machinery: %+v", fast.Host)
	}
	if slow.Host.LinkHits != 0 || slow.Host.LinkMisses != 0 || slow.Host.SuperblockIns != 0 {
		t.Fatalf("NoFastPath run reported fast-path activity: %+v", slow.Host)
	}
	if fast.Host.Dispatches != slow.Host.Dispatches {
		t.Fatalf("dispatch counts differ: %d vs %d", fast.Host.Dispatches, slow.Host.Dispatches)
	}
}
