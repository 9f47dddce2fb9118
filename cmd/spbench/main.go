// Command spbench regenerates the SuperPin paper's evaluation (Section
// 6): Figures 3-7 and the Section 4.4 signature-detection statistics, as
// aligned text tables and optionally CSV files.
//
//	spbench                      # every experiment at the default scale
//	spbench -exp fig6 -scale 1   # one experiment, full-size workloads
//	spbench -csv out/            # also write out/fig3.csv etc.
//	spbench -j 8                 # fan runs out over 8 host workers
//	spbench -hostjson BENCH_host.json  # also write host-perf metrics
//	spbench -trace-dir traces/   # write per-benchmark Chrome trace JSON
//	spbench -exp sadiff          # one differential-matrix preset: obssmoke, fastpathdiff,
//	                             # sadiff, profdiff, pardiff, jitdiff or cachediff
//	spbench -warmstart           # measure cold vs warm vs disk-warm wall-clock
//	spbench -cachedir dir        # share predecode/SA/hot-seed artifacts across runs
//	spbench -workers 4           # execute each run's slices on 4 goroutines
//	spbench -scaling 1,2,4,8     # measure wall-clock vs per-run workers
//	spbench -nofastpath          # run with the dispatch fast paths off
//	spbench -nosa                # run with the load-time static analysis off
//	spbench -nohottier           # run with the second-tier trace compiler off
//	spbench -cpuprofile cpu.pprof  # host CPU profile of the harness itself
//	spbench -serve 127.0.0.1:8080  # live /metrics /status /trace HTTP plane
//	spbench -lastgasp crash.json   # dump the flight recorder on panic/SIGTERM
//	spbench -flightcap 65536       # flight-recorder ring capacity (events)
//
// Independent benchmark runs fan out over a bounded worker pool; -j 0
// (the default) uses the SPBENCH_J environment variable when set, else
// GOMAXPROCS. Virtual-cycle results are byte-identical for every -j.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"superpin/internal/artifact"
	"superpin/internal/bench"
	"superpin/internal/report"
	"superpin/internal/telemetry"
)

// hostPerf is the BENCH_host.json artifact: host-side performance of one
// spbench invocation, tracked across PRs for the perf trajectory.
type hostPerf struct {
	ElapsedSec float64 `json:"elapsed_sec"`
	Workers    int     `json:"workers"`
	// SPWorkers is the per-run slice-level worker count (-workers); the
	// Scaling curve, when present, sweeps it with host fan-out off.
	SPWorkers  int     `json:"sp_workers"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Scale      float64 `json:"scale"`
	SuiteRuns  int     `json:"suite_runs"`
	// GuestIns is a lower bound on guest instructions executed: each
	// suite triple runs its benchmark at least three times (native, Pin,
	// SuperPin; the SuperPin master+slice double execution is not
	// counted).
	GuestIns  uint64  `json:"guest_ins_min"`
	GuestMIPS float64 `json:"guest_mips_min"`
	// NoFastPath records whether the engine's dispatch fast paths were
	// disabled; Host aggregates their counters (from the suites' serial
	// Pin runs) so the artifact shows how much the fast paths engaged.
	NoFastPath bool               `json:"nofastpath"`
	Host       bench.HostCounters `json:"host_counters"`
	// Scaling is the -scaling sweep: wall-clock of a serial SuperPin-only
	// pass over the configured benchmarks at each per-run worker count,
	// with speedup relative to the first point.
	Scaling []bench.ScalePoint `json:"scaling,omitempty"`
	// Warmstart is the -warmstart sweep: wall-clock of serial-Pin passes
	// over the configured benchmarks cold, warm (populated in-process
	// artifact store) and disk-warm, with the time-to-first-promotion
	// dispatch totals.
	Warmstart *bench.WarmstartResult `json:"warmstart,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spbench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment: all|fig3|fig4|fig5|fig6|fig7|sigstats|ablations|obssmoke|fastpathdiff|sadiff|profdiff|pardiff|jitdiff|cachediff|scaling")
		scale      = fs.Float64("scale", 0.25, "workload scale (1.0 = full size)")
		msec       = fs.Float64("msec", 0, "timeslice interval in virtual ms (0 = scale-proportional default)")
		maxSlices  = fs.Int("spmp", 8, "maximum running slices for suite runs")
		benchmarks = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all 26)")
		csvDir     = fs.String("csv", "", "directory to also write <experiment>.csv files into")
		jobs       = fs.Int("j", 0, "host worker-pool size (0 = $SPBENCH_J, else GOMAXPROCS; 1 = serial)")
		workers    = fs.Int("workers", 0, "slice-level worker goroutines inside each SuperPin run (results identical at any value; 0 = $SUPERPIN_WORKERS, then 1)")
		scaling    = fs.String("scaling", "", "comma-separated per-run worker counts to sweep for the wall-clock scaling curve (e.g. 1,2,4,8)")
		hostJSON   = fs.String("hostjson", "", "file to write host-perf metrics (wall-clock, guest-MIPS) into")
		traceDir   = fs.String("trace-dir", "", "directory to write per-benchmark Chrome trace JSON files into")
		noFastPath = fs.Bool("nofastpath", false, "disable the engine's dispatch fast paths (trace linking, superblock batching)")
		noSA       = fs.Bool("nosa", false, "disable the load-time static analysis (verifier, liveness elision, shared predecode)")
		noHotTier  = fs.Bool("nohottier", false, "disable the second-tier trace compiler (profile-guided layout, register caching, spill hoisting)")
		cpuProf    = fs.String("cpuprofile", "", "write a host CPU profile (runtime/pprof) of the harness to this file")
		memProf    = fs.String("memprofile", "", "write a host heap profile of the harness to this file")
		cacheDir   = fs.String("cachedir", os.Getenv("SUPERPIN_CACHE"), "persistent artifact cache directory shared by every run (created if missing; default $SUPERPIN_CACHE; virtual results are identical warm or cold)")
		warmstart  = fs.Bool("warmstart", false, "after the experiments, measure cold vs warm vs disk-warm serial-Pin wall-clock over the configured benchmarks")
		serveAddr  = fs.String("serve", os.Getenv("SUPERPIN_SERVE"), "serve live telemetry over HTTP on this address while the harness runs (/metrics, /metrics.json, /status, /trace, /healthz, /debug/pprof/; default $SUPERPIN_SERVE; empty = off)")
		flightCap  = fs.Int("flightcap", telemetry.DefaultFlightCap, "flight-recorder ring capacity in events for -serve/-lastgasp")
		lastGasp   = fs.String("lastgasp", os.Getenv("SUPERPIN_LASTGASP"), "write a Perfetto trace snapshot of the flight recorder to this file on SIGTERM/SIGINT or panic (default $SUPERPIN_LASTGASP; empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d (0 consults $SUPERPIN_WORKERS)", *workers)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := writeMemProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "spbench: memprofile:", err)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.MaxSlices = *maxSlices
	cfg.Workers = *jobs
	cfg.SPWorkers = *workers
	cfg.TraceDir = *traceDir
	cfg.NoFastPath = *noFastPath
	cfg.NoSA = *noSA
	cfg.NoHotTier = *noHotTier
	if *msec > 0 {
		cfg.TimesliceMSec = *msec
	} else {
		// Keep the slice-count-per-run ratio roughly constant across
		// scales (the paper uses 2 s slices on minutes-long runs).
		cfg.TimesliceMSec = 500 * *scale / 0.25
	}
	if *benchmarks != "" {
		cfg.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *cacheDir != "" {
		store, err := artifact.NewDiskStore(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Artifacts = store
	}

	// Live telemetry plane (-serve / -lastgasp): one registry and one
	// flight-recorder ring shared by every run the harness performs, so
	// /status shows the whole invocation's progress. Inert when both
	// flags are off — the harness then runs registry- and tracer-free.
	plane, err := telemetry.StartPlane(telemetry.PlaneOptions{
		ServeAddr: *serveAddr,
		LastGasp:  *lastGasp,
		FlightCap: *flightCap,
	})
	if err != nil {
		return err
	}
	defer plane.Close()
	defer plane.Recorder.DumpOnPanic(plane.LastGasp)
	cfg.Metrics = plane.Metrics
	cfg.LiveTrace = plane.Tracer

	// emit prints a finished experiment's table and writes its CSV, or
	// returns the error that stopped the experiment.
	emit := func(name string, t *report.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t)
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*csvDir, name+".csv"), []byte(t.CSV()), 0o644)
	}

	start := time.Now()
	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	// Host-perf accounting for -hostjson: every suite Result stands for
	// at least three executions of its benchmark.
	var suiteIns uint64
	var hostTotals bench.HostCounters
	suiteRuns := 0
	account := func(rs []*bench.Result) {
		for _, r := range rs {
			suiteIns += 3 * r.Ins
			suiteRuns += 3
			hostTotals.Dispatches += r.Host.Dispatches
			hostTotals.LinkHits += r.Host.LinkHits
			hostTotals.LinkMisses += r.Host.LinkMisses
			hostTotals.LinkInvalidations += r.Host.LinkInvalidations
			hostTotals.SuperblockIns += r.Host.SuperblockIns
			hostTotals.HotPromotions += r.Host.HotPromotions
			hostTotals.HotIns += r.Host.HotIns
			hostTotals.HoistedSaves += r.Host.HoistedSaves
			hostTotals.HotLinkHits += r.Host.HotLinkHits
		}
	}

	if want("fig3") || want("fig4") {
		t3, rs, err := bench.Fig3(cfg)
		if err != nil {
			return err
		}
		account(rs)
		if want("fig3") {
			if err := emit("fig3", t3, nil); err != nil {
				return err
			}
			ran = true
		}
		if want("fig4") {
			t4, _, err := bench.Fig4(cfg, rs)
			if err := emit("fig4", t4, err); err != nil {
				return err
			}
			ran = true
		}
	}
	if want("fig5") {
		t5, rs, err := bench.Fig5(cfg)
		if err != nil {
			return err
		}
		account(rs)
		if err := emit("fig5", t5, nil); err != nil {
			return err
		}
		ran = true
	}
	if want("fig6") {
		t6, _, err := bench.Fig6(cfg, nil)
		if err := emit("fig6", t6, err); err != nil {
			return err
		}
		ran = true
	}
	if want("fig7") {
		t7, _, err := bench.Fig7(cfg, nil)
		if err := emit("fig7", t7, err); err != nil {
			return err
		}
		ran = true
	}
	if want("sigstats") {
		ts, _, err := bench.SigStats(cfg)
		if err := emit("sigstats", ts, err); err != nil {
			return err
		}
		ran = true
	}
	if want("ablations") {
		tq, _, err := bench.AblationQuickCheck(cfg)
		if err := emit("ablation_quickcheck", tq, err); err != nil {
			return err
		}
		tr, _, err := bench.AblationSysRecs(cfg)
		if err := emit("ablation_sysrecs", tr, err); err != nil {
			return err
		}
		tc, _, err := bench.AblationSharedCache(cfg)
		if err := emit("ablation_sharedcache", tc, err); err != nil {
			return err
		}
		tt, _, err := bench.AblationThrottle(cfg)
		if err := emit("ablation_throttle", tt, err); err != nil {
			return err
		}
		ran = true
	}
	if p, ok := bench.LookupDiff(*exp); ok {
		reports, err := p.Run(cfg)
		if err != nil {
			return err
		}
		t := report.New(p.Title, "benchmark", "ins", "legs", "pin cycles", "sp cycles",
			"slices", "events", "engagement", "verdict")
		for _, r := range reports {
			t.Row(r.Name, r.Ins, r.Legs, uint64(r.PinCycles), uint64(r.SPCycles),
				r.Slices, r.Events, strings.Trim(fmt.Sprint(r.Engaged), "[]"), "ok")
		}
		if err := emit(p.Name, t, nil); err != nil {
			return err
		}
		fmt.Println("checked:")
		for _, c := range p.Checks {
			fmt.Println("  -", c)
		}
		ran = true
	}
	if *exp == "scaling" {
		// Standalone scaling sweep: default to the canonical worker counts.
		if *scaling == "" {
			*scaling = "1,2,4,8"
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	elapsed := time.Since(start)
	fmt.Printf("(scale %.2f, timeslice %.0f ms, elapsed %s)\n", cfg.Scale, cfg.TimesliceMSec, elapsed.Round(time.Millisecond))

	var scalePoints []bench.ScalePoint
	if *scaling != "" {
		ws, err := parseWorkerList(*scaling)
		if err != nil {
			return err
		}
		scalePoints, err = bench.RunScaling(cfg, ws)
		if err != nil {
			return err
		}
		st := report.New("Wall-clock vs per-run workers (SuperPin-only serial sweep, virtual results identical)",
			"workers", "elapsed (s)", "speedup")
		for _, p := range scalePoints {
			st.Row(p.Workers, fmt.Sprintf("%.3f", p.ElapsedSec), fmt.Sprintf("%.2fx", p.Speedup))
		}
		if err := emit("scaling", st, nil); err != nil {
			return err
		}
	}

	// The warmstart sweep runs after the elapsed snapshot, like -scaling,
	// so the headline guest-MIPS stays comparable across artifacts that
	// did and did not request it.
	var warmRes *bench.WarmstartResult
	if *warmstart {
		wr, err := bench.RunWarmstart(cfg)
		if err != nil {
			return err
		}
		warmRes = wr
		wt := report.New("Warm-start wall-clock (serial Pin sweep over the configured benchmarks)",
			"pass", "elapsed (s)", "ttfp dispatches", "warm promos")
		wt.Row("cold", fmt.Sprintf("%.3f", warmRes.ColdSec), warmRes.ColdTTFP, uint64(0))
		wt.Row("warm", fmt.Sprintf("%.3f", warmRes.WarmSec), warmRes.WarmTTFP, warmRes.WarmPromotions)
		wt.Row("disk-warm", fmt.Sprintf("%.3f", warmRes.DiskSec), uint64(0), uint64(0))
		if err := emit("warmstart", wt, nil); err != nil {
			return err
		}
		fmt.Printf("warm-start speedup: %.2fx (cold %.3fs -> warm %.3fs)\n",
			warmRes.Speedup, warmRes.ColdSec, warmRes.WarmSec)
	}

	if *hostJSON != "" {
		hp := hostPerf{
			ElapsedSec: elapsed.Seconds(),
			Workers:    *jobs,
			SPWorkers:  *workers,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Scale:      cfg.Scale,
			SuiteRuns:  suiteRuns,
			GuestIns:   suiteIns,
			NoFastPath: *noFastPath,
			Host:       hostTotals,
			Scaling:    scalePoints,
			Warmstart:  warmRes,
		}
		if hp.ElapsedSec > 0 {
			hp.GuestMIPS = float64(suiteIns) / (hp.ElapsedSec * 1e6)
		}
		data, err := json.MarshalIndent(hp, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*hostJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// parseWorkerList parses a comma-separated list of worker counts.
func parseWorkerList(s string) ([]int, error) {
	var ws []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -scaling entry %q", part)
		}
		ws = append(ws, v)
	}
	return ws, nil
}

// writeMemProfile snapshots the host heap after a GC.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
