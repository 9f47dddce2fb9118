// Package bench is the experiment harness that regenerates every table
// and figure in the SuperPin paper's evaluation (Section 6):
//
//   - Figure 3: icount1 runtime under Pin and SuperPin relative to native,
//     per SPEC2000 benchmark plus the average
//   - Figure 4: icount1 SuperPin speedup over Pin
//   - Figure 5: icount2 runtime under Pin and SuperPin relative to native
//   - Figure 6: gcc runtime vs. timeslice interval, broken into native /
//     fork&others / sleep / pipeline components
//   - Figure 7: gcc runtime vs. maximum running slices (hyperthreaded
//     8-way machine, 16 virtual processors)
//   - the Section 4.4 signature-detection statistics (quick vs. full vs.
//     stack checks)
//
// Absolute cycle counts are the simulator's, not the authors' testbed's;
// the reproduced quantity is the shape of each result (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"superpin/internal/artifact"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

// ToolKind selects the evaluation tool.
type ToolKind int

// Evaluation tools.
const (
	Icount1 ToolKind = iota // per-instruction counting
	Icount2                 // per-basic-block counting
)

func (tk ToolKind) String() string {
	if tk == Icount1 {
		return "icount1"
	}
	return "icount2"
}

// Config parameterizes the harness.
type Config struct {
	// Kernel is the simulated machine (default: the paper's 8-way
	// hyperthreaded SMP).
	Kernel kernel.Config
	// Scale multiplies every workload's run length (1.0 = full size;
	// tests use much smaller values).
	Scale float64
	// TimesliceMSec is the -spmsec value for suite runs. The paper uses
	// 2000 ms on runs that last minutes; the default here keeps the same
	// slice-count-per-run ratio for the simulator's shorter runs.
	TimesliceMSec float64
	// MaxSlices is the -spmp value for suite runs (paper: 8).
	MaxSlices int
	// Benchmarks restricts the suite to the named catalog entries
	// (nil = all 26).
	Benchmarks []string
	// PinCost is the base engine cost model; per-benchmark memory
	// surcharges are applied on top.
	PinCost pin.CostModel
	// Workers bounds how many benchmark runs RunSuite and the figure and
	// ablation sweeps execute concurrently on the host. Zero consults the
	// SPBENCH_J environment variable, then defaults to GOMAXPROCS; 1
	// forces serial execution. Every run owns its own kernel, memory
	// image and engine, and results are collected in catalog order, so
	// output is byte-identical for every Workers value.
	Workers int
	// SPWorkers is the host-parallelism degree inside each SuperPin run
	// (core.Options.Workers): independent slices execute concurrently on
	// that many goroutines with a deterministic merge, so virtual-cycle
	// results are identical for every value. Zero leaves the per-run
	// default ($SUPERPIN_WORKERS, then serial).
	SPWorkers int
	// TraceDir, when non-empty, attaches a tracer to every SuperPin run
	// and writes each run's Chrome trace-format JSON (loadable in
	// Perfetto) to <TraceDir>/<benchmark>.<tool>.trace.json.
	TraceDir string
	// NoFastPath disables the Pin engine's host-side dispatch fast paths
	// (trace linking and batched superblock execution) in every run the
	// harness performs. Virtual-cycle results are identical either way;
	// the flag exists for differential testing and host-perf comparison.
	NoFastPath bool
	// NoSA disables the load-time static analysis (verifier, liveness
	// elision, shared predecode) in every run the harness performs.
	// Virtual-cycle results are identical either way (`-exp sadiff`
	// proves it).
	NoSA bool
	// NoHotTier disables the second-tier trace compiler (profile-guided
	// hot-successor layout, register-cached superblocks, predicate-spill
	// hoisting) in every run the harness performs. Virtual-cycle results
	// are identical either way (`-exp jitdiff` proves it).
	NoHotTier bool
	// Artifacts, when non-nil, is the content-addressed artifact store
	// every run the harness performs shares: concurrent suite runs of the
	// same benchmark predecode and analyze each image exactly once, and
	// later runs warm-start the hot tier from earlier runs' harvests.
	// Virtual-cycle results are identical with or without a store
	// (`-exp cachediff` proves it).
	Artifacts *artifact.Store
	// Metrics, when non-nil, is the live telemetry registry every run the
	// harness performs reports into: kernel live counters and pool-phase
	// histograms, engine dispatch/compile telemetry, and the core run
	// statistics. Host-side only — virtual-cycle results are identical
	// with or without it.
	Metrics *obs.Metrics
	// LiveTrace, when non-nil, is a long-lived tracer (typically a ring,
	// serving as the flight recorder) attached to every run the harness
	// performs. TraceDir takes precedence inside a SuperPin run: those
	// runs use a private per-run tracer for their trace files.
	LiveTrace *obs.Tracer
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	kcfg := kernel.DefaultConfig()
	kcfg.MaxCycles = 200_000_000_000
	return Config{
		Kernel:        kcfg,
		Scale:         1.0,
		TimesliceMSec: 500,
		MaxSlices:     8,
		PinCost:       pin.DefaultCost(),
	}
}

func (c *Config) normalize() {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.TimesliceMSec <= 0 {
		c.TimesliceMSec = 500
	}
	if c.MaxSlices <= 0 {
		c.MaxSlices = 8
	}
	if c.PinCost == (pin.CostModel{}) {
		c.PinCost = pin.DefaultCost()
	}
	if c.Kernel.CPUs == 0 {
		c.Kernel = kernel.DefaultConfig()
		c.Kernel.MaxCycles = 200_000_000_000
	}
	if c.NoFastPath {
		c.PinCost.NoFastPath = true
	}
	if c.NoSA {
		c.PinCost.NoSA = true
	}
	if c.NoHotTier {
		c.PinCost.NoHotTier = true
	}
	// Thread the telemetry plane through the kernel config so every run
	// the harness performs — native, Pin baseline, SuperPin, and all the
	// differential experiments — inherits it without per-harness wiring.
	if c.Metrics != nil && c.Kernel.Metrics == nil {
		c.Kernel.Metrics = c.Metrics
	}
	if c.LiveTrace != nil && c.Kernel.Trace == nil {
		c.Kernel.Trace = c.LiveTrace
	}
}

// specs resolves the configured benchmark list.
func (c *Config) specs() ([]workload.Spec, error) {
	if len(c.Benchmarks) == 0 {
		return workload.Catalog(), nil
	}
	return resolveSpecs(c.Benchmarks)
}

// resolveSpecs maps benchmark names to catalog specs, erroring
// deterministically on the first unknown name before any run starts.
func resolveSpecs(names []string) ([]workload.Spec, error) {
	specs := make([]workload.Spec, len(names))
	for i, name := range names {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown benchmark %q", name)
		}
		specs[i] = spec
	}
	return specs, nil
}

// newTool builds the measurement tool for one run.
func newTool(kind ToolKind) *tools.Icount {
	if kind == Icount1 {
		return tools.NewIcount1(nil)
	}
	return tools.NewIcount2(nil)
}

// Result is one benchmark's measurement triple.
type Result struct {
	Name   string
	Native kernel.Cycles
	Pin    kernel.Cycles
	SP     kernel.Cycles
	// Ins is the benchmark's guest instruction count (identical across
	// the native, Pin and SuperPin runs by construction; each triple
	// executes at least 3x this many guest instructions). spbench uses it
	// to report host-side guest-MIPS.
	Ins uint64
	// PinPct and SPPct are runtimes relative to native, in percent
	// (100 = native speed), matching the paper's figure axes.
	PinPct float64
	SPPct  float64
	// Speedup is Pin/SP, the Figure 4 quantity.
	Speedup float64
	// Detail is the full SuperPin result.
	Detail *core.Result
	// Host holds the serial Pin run's host-side dispatch fast-path
	// counters (all zero under Config.NoFastPath).
	Host HostCounters
}

// HostCounters are the Pin engine's host-side dispatch fast-path
// counters for one run: they describe what the host paid, never what the
// guest was charged, so they may differ between fast-path and
// -nofastpath runs whose virtual-cycle results are identical.
type HostCounters struct {
	Dispatches        uint64 `json:"dispatches"`
	LinkHits          uint64 `json:"link_hits"`
	LinkMisses        uint64 `json:"link_misses"`
	LinkInvalidations uint64 `json:"link_invalidations"`
	SuperblockIns     uint64 `json:"superblock_ins"`
	HotPromotions     uint64 `json:"hot_promotions"`
	HotIns            uint64 `json:"hot_ins"`
	HoistedSaves      uint64 `json:"hoisted_saves"`
	HotLinkHits       uint64 `json:"hot_link_hits"`
}

// hostCounters extracts the fast-path counters from a serial Pin result.
func hostCounters(res *core.PinResult) HostCounters {
	return HostCounters{
		Dispatches:        res.Engine.Dispatches,
		LinkHits:          res.Cache.LinkHits,
		LinkMisses:        res.Cache.LinkMisses,
		LinkInvalidations: res.Cache.LinkInvalidations,
		SuperblockIns:     res.Engine.SuperblockIns,
		HotPromotions:     res.Engine.HotPromotions,
		HotIns:            res.Engine.HotIns,
		HoistedSaves:      res.Engine.HoistedSaves,
		HotLinkHits:       res.Engine.HotLinkHits,
	}
}

// spOptions returns the SuperPin options every harness run starts from:
// the configured timeslice, slice limit and cost model, with the
// benchmark's memory surcharges.
func spOptions(cfg Config, spec workload.Spec) core.Options {
	opts := core.DefaultOptions()
	opts.SliceMSec = cfg.TimesliceMSec
	opts.MaxSlices = cfg.MaxSlices
	opts.PinCost = cfg.PinCost
	opts.PinCost.MemSurcharge = spec.SliceMemCost
	opts.NativeMemSurcharge = spec.NativeMemCost
	return opts
}

// RunBenchmark measures one benchmark under native, Pin and SuperPin
// execution with the given tool, verifying that all three agree on the
// instruction count.
func RunBenchmark(cfg Config, spec workload.Spec, kind ToolKind) (*Result, error) {
	cfg.normalize()
	spec = spec.Scaled(cfg.Scale)
	prog, err := spec.Build()
	if err != nil {
		return nil, err
	}

	native, err := core.RunNativeCached(cfg.Kernel, prog, spec.NativeMemCost, 0, cfg.Artifacts)
	if err != nil {
		return nil, fmt.Errorf("bench %s: native: %w", spec.Name, err)
	}

	pinCost := cfg.PinCost
	pinCost.MemSurcharge = spec.PinMemCost
	pinTool := newTool(kind)
	pinRes, err := core.RunPinCached(cfg.Kernel, prog, pinTool.Factory(), pinCost, 0, cfg.Artifacts)
	if err != nil {
		return nil, fmt.Errorf("bench %s: pin: %w", spec.Name, err)
	}
	if pinTool.Total() != native.Ins {
		return nil, fmt.Errorf("bench %s: pin %s counted %d, native executed %d",
			spec.Name, kind, pinTool.Total(), native.Ins)
	}

	opts := spOptions(cfg, spec)
	opts.Workers = cfg.SPWorkers
	opts.Artifacts = cfg.Artifacts
	if cfg.TraceDir != "" {
		opts.Trace = obs.NewTracer()
	}
	spTool := newTool(kind)
	spRes, err := core.Run(cfg.Kernel, prog, spTool.Factory(), opts)
	if err != nil {
		return nil, fmt.Errorf("bench %s: superpin: %w", spec.Name, err)
	}
	if cfg.TraceDir != "" {
		if err := writeTrace(cfg.TraceDir, spec.Name, kind, opts.Trace); err != nil {
			return nil, fmt.Errorf("bench %s: %w", spec.Name, err)
		}
	}
	if spRes.Err != nil {
		return nil, fmt.Errorf("bench %s: superpin: %w", spec.Name, spRes.Err)
	}
	if spTool.Total() != native.Ins {
		return nil, fmt.Errorf("bench %s: superpin %s counted %d, native executed %d",
			spec.Name, kind, spTool.Total(), native.Ins)
	}

	r := &Result{
		Name:   spec.Name,
		Native: native.Time,
		Pin:    pinRes.Time,
		SP:     spRes.TotalTime,
		Ins:    native.Ins,
		Detail: spRes,
		Host:   hostCounters(pinRes),
	}
	r.PinPct = 100 * float64(r.Pin) / float64(r.Native)
	r.SPPct = 100 * float64(r.SP) / float64(r.Native)
	r.Speedup = float64(r.Pin) / float64(r.SP)
	return r, nil
}

// writeTrace writes one SuperPin run's Chrome trace into dir.
func writeTrace(dir, name string, kind ToolKind, tr *obs.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.%s.trace.json", name, kind))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tr.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunSuite measures every configured benchmark with the given tool,
// fanning independent runs out over a bounded worker pool (Config.Workers)
// and collecting results in catalog order. Parallel and serial runs
// produce byte-identical Results.
func RunSuite(cfg Config, kind ToolKind) ([]*Result, error) {
	cfg.normalize()
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	return runIndexed(cfg.Workers, len(specs), func(i int) (*Result, error) {
		return RunBenchmark(cfg, specs[i], kind)
	})
}

// Averages returns the arithmetic-mean PinPct, SPPct and Speedup over rs,
// the paper's "AVG" bars.
func Averages(rs []*Result) (pinPct, spPct, speedup float64) {
	if len(rs) == 0 {
		return 0, 0, 0
	}
	for _, r := range rs {
		pinPct += r.PinPct
		spPct += r.SPPct
		speedup += r.Speedup
	}
	n := float64(len(rs))
	return pinPct / n, spPct / n, speedup / n
}
