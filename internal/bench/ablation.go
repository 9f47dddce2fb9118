package bench

import (
	"superpin/internal/core"
	"superpin/internal/report"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

// This file holds the ablation studies for the design decisions the paper
// motivates qualitatively:
//
//   - the inlined two-register quick check vs. always running the full
//     signature comparison (Section 4.4's "optimize the detection
//     process"),
//   - system-call record-and-playback vs. forking a slice at every
//     syscall (Section 4.2's gcc motivation), and
//   - the Section 8 adaptive timeslice throttle vs. a fixed interval.

// AblationRow compares a benchmark's SuperPin runtime with a design
// feature on and off.
type AblationRow struct {
	Name    string
	OnSecs  float64
	OffSecs float64
	// Penalty is Off/On: how much slower the run is without the feature.
	Penalty float64
}

// ablationRows measures every named benchmark with a feature on and off,
// fanning the independent on/off run pairs out over the worker pool.
func ablationRows(cfg Config, names []string, mutOn, mutOff func(*core.Options)) ([]AblationRow, error) {
	specs, err := resolveSpecs(names)
	if err != nil {
		return nil, err
	}
	return runIndexed(cfg.Workers, len(specs), func(i int) (AblationRow, error) {
		on, _, err := runWith(cfg, specs[i], mutOn)
		if err != nil {
			return AblationRow{}, err
		}
		off, _, err := runWith(cfg, specs[i], mutOff)
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{Name: specs[i].Name, OnSecs: on, OffSecs: off, Penalty: off / on}, nil
	})
}

// runWith measures one SuperPin run with the given option mutation,
// returning total virtual seconds.
func runWith(cfg Config, spec workload.Spec, mutate func(*core.Options)) (float64, *core.Result, error) {
	spec = spec.Scaled(cfg.Scale)
	prog, err := spec.Build()
	if err != nil {
		return 0, nil, err
	}
	opts := spOptions(cfg, spec)
	if mutate != nil {
		mutate(&opts)
	}
	tool := tools.NewIcount2(nil)
	res, err := core.Run(cfg.Kernel, prog, tool.Factory(), opts)
	if err != nil {
		return 0, nil, err
	}
	if res.Err != nil {
		return 0, nil, res.Err
	}
	return cfg.Kernel.Cost.Seconds(res.TotalTime), res, nil
}

// AblationQuickCheck measures what the inlined quick check saves: each
// benchmark runs with the normal if/then detection and with
// AlwaysFullCheck (a full analysis call and complete register+stack
// comparison at every boundary-PC arrival).
func AblationQuickCheck(cfg Config) (*report.Table, []AblationRow, error) {
	cfg.normalize()
	names := cfg.Benchmarks
	if names == nil {
		names = []string{"gzip", "mcf", "mgrid", "crafty"}
	}
	rows, err := ablationRows(cfg, names, nil,
		func(o *core.Options) { o.AlwaysFullCheck = true })
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Ablation: inlined quick check vs always-full signature check (icount2, vsec)",
		"benchmark", "quick-check", "always-full", "penalty")
	for _, row := range rows {
		t.Row(row.Name, row.OnSecs, row.OffSecs, row.Penalty)
	}
	return t, rows, nil
}

// AblationSysRecs measures what record-and-playback saves on syscall-
// heavy applications: gcc and perlbmk run with the default 1000-record
// budget and with recording disabled (every system call forces a slice),
// the situation the paper calls "unacceptable" for gcc.
func AblationSysRecs(cfg Config) (*report.Table, []AblationRow, error) {
	cfg.normalize()
	names := cfg.Benchmarks
	if names == nil {
		names = []string{"gcc", "perlbmk", "vortex"}
	}
	rows, err := ablationRows(cfg, names, nil,
		func(o *core.Options) { o.MaxSysRecs = 0 })
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Ablation: syscall record-and-playback vs fork-per-syscall (icount2, vsec)",
		"benchmark", "record+playback", "fork-always", "penalty")
	for _, row := range rows {
		t.Row(row.Name, row.OnSecs, row.OffSecs, row.Penalty)
	}
	return t, rows, nil
}

// AblationSharedCache measures the Section 8 shared-code-cache idea:
// compile-heavy gcc runs with per-slice private code caches (the paper's
// shipped design) and with the shared translation cache.
func AblationSharedCache(cfg Config) (*report.Table, []AblationRow, error) {
	cfg.normalize()
	names := cfg.Benchmarks
	if names == nil {
		names = []string{"gcc", "fma3d", "eon"}
	}
	rows, err := ablationRows(cfg, names,
		func(o *core.Options) { o.SharedCodeCache = true }, nil)
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Ablation: shared code cache across slices (Section 8), icount2, vsec",
		"benchmark", "shared-cache", "private-caches", "penalty")
	for _, row := range rows {
		t.Row(row.Name, row.OnSecs, row.OffSecs, row.Penalty)
	}
	return t, rows, nil
}

// ThrottleRow compares pipeline delay with and without the adaptive
// timeslice throttle.
type ThrottleRow struct {
	Name       string
	FixedPipe  float64
	FixedTotal float64
	ThrotPipe  float64
	ThrotTotal float64
}

// AblationThrottle measures the Section 8 future-work feature: shrinking
// timeslices toward the end of execution to drain the pipeline faster.
func AblationThrottle(cfg Config) (*report.Table, []ThrottleRow, error) {
	cfg.normalize()
	names := cfg.Benchmarks
	if names == nil {
		names = []string{"gzip", "mgrid", "wupwise"}
	}
	specs, err := resolveSpecs(names)
	if err != nil {
		return nil, nil, err
	}
	sec := cfg.Kernel.Cost.Seconds
	rows, err := runIndexed(cfg.Workers, len(specs), func(i int) (ThrottleRow, error) {
		spec := specs[i]
		b, err := newBenchRun(cfg, spec)
		if err != nil {
			return ThrottleRow{}, err
		}
		native := b.native

		_, fixedRes, err := runWith(cfg, spec, nil)
		if err != nil {
			return ThrottleRow{}, err
		}
		_, _, _, fixedPipe := fixedRes.Breakdown(native.Time)

		expected := 1000 * sec(native.Time)
		_, throtRes, err := runWith(cfg, spec, func(o *core.Options) {
			o.ExpectedAppMSec = expected
		})
		if err != nil {
			return ThrottleRow{}, err
		}
		_, _, _, throtPipe := throtRes.Breakdown(native.Time)

		return ThrottleRow{
			Name:       spec.Name,
			FixedPipe:  sec(fixedPipe),
			FixedTotal: sec(fixedRes.TotalTime),
			ThrotPipe:  sec(throtPipe),
			ThrotTotal: sec(throtRes.TotalTime),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Ablation: adaptive timeslice throttle (Section 8), icount2, vsec",
		"benchmark", "fixed-pipeline", "fixed-total", "throttled-pipeline", "throttled-total")
	for _, row := range rows {
		t.Row(row.Name, row.FixedPipe, row.FixedTotal, row.ThrotPipe, row.ThrotTotal)
	}
	return t, rows, nil
}
