package bench

import (
	"fmt"

	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/report"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

// Fig3 reproduces Figure 3: icount1 Pin and SuperPin performance relative
// to native (percent; 100 = native), per benchmark plus AVG.
func Fig3(cfg Config) (*report.Table, []*Result, error) {
	rs, err := RunSuite(cfg, Icount1)
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Figure 3: icount1 runtime relative to native (%)",
		"benchmark", "Pin%", "SuperPin%")
	for _, r := range rs {
		t.Row(r.Name, r.PinPct, r.SPPct)
	}
	pinAvg, spAvg, _ := Averages(rs)
	t.Row("AVG", pinAvg, spAvg)
	return t, rs, nil
}

// Fig4 reproduces Figure 4: icount1 SuperPin speedup over Pin. It reuses
// the Figure 3 measurements when provided (the paper derives both from
// the same runs).
func Fig4(cfg Config, fig3 []*Result) (*report.Table, []*Result, error) {
	rs := fig3
	if rs == nil {
		var err error
		rs, err = RunSuite(cfg, Icount1)
		if err != nil {
			return nil, nil, err
		}
	}
	t := report.New("Figure 4: icount1 SuperPin speedup over Pin (x)",
		"benchmark", "speedup")
	for _, r := range rs {
		t.Row(r.Name, r.Speedup)
	}
	_, _, avg := Averages(rs)
	t.Row("AVG", avg)
	return t, rs, nil
}

// Fig5 reproduces Figure 5: icount2 Pin and SuperPin performance relative
// to native.
func Fig5(cfg Config) (*report.Table, []*Result, error) {
	rs, err := RunSuite(cfg, Icount2)
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Figure 5: icount2 runtime relative to native (%)",
		"benchmark", "Pin%", "SuperPin%")
	for _, r := range rs {
		t.Row(r.Name, r.PinPct, r.SPPct)
	}
	pinAvg, spAvg, _ := Averages(rs)
	t.Row("AVG", pinAvg, spAvg)
	return t, rs, nil
}

// Fig6Row is one bar of Figure 6, in virtual seconds.
type Fig6Row struct {
	TimesliceMSec float64
	Native        float64
	ForkOthers    float64
	Sleep         float64
	Pipeline      float64
	Total         float64
}

// Fig6 reproduces Figure 6: gcc (icount1) runtime versus timeslice
// interval, decomposed into native time, fork & other overhead, master
// sleep, and pipeline delay. sweep lists the -spmsec values; nil uses the
// paper's 0.5/1/2/4-second sweep scaled to the harness timeslice.
func Fig6(cfg Config, sweep []float64) (*report.Table, []Fig6Row, error) {
	cfg.normalize()
	if sweep == nil {
		base := cfg.TimesliceMSec
		sweep = []float64{base / 4, base / 2, base, base * 2}
	}
	spec, ok := workload.ByName("gcc")
	if !ok {
		return nil, nil, fmt.Errorf("bench: gcc missing from catalog")
	}
	b, err := newBenchRun(cfg, spec)
	if err != nil {
		return nil, nil, err
	}
	spec, prog, native := b.spec, b.prog, b.native

	sec := cfg.Kernel.Cost.Seconds
	rows, err := runIndexed(cfg.Workers, len(sweep), func(i int) (Fig6Row, error) {
		msec := sweep[i]
		opts := core.DefaultOptions()
		opts.SliceMSec = msec
		opts.MaxSlices = cfg.MaxSlices
		opts.PinCost = cfg.PinCost
		opts.PinCost.MemSurcharge = spec.SliceMemCost
		opts.NativeMemSurcharge = spec.NativeMemCost
		tool := tools.NewIcount1(nil)
		res, err := core.Run(cfg.Kernel, prog, tool.Factory(), opts)
		if err != nil {
			return Fig6Row{}, err
		}
		if res.Err != nil {
			return Fig6Row{}, fmt.Errorf("bench: fig6 at %.0fms: %w", msec, res.Err)
		}
		nat, fork, sleep, pipe := res.Breakdown(native.Time)
		return Fig6Row{
			TimesliceMSec: msec,
			Native:        sec(nat),
			ForkOthers:    sec(fork),
			Sleep:         sec(sleep),
			Pipeline:      sec(pipe),
			Total:         sec(res.TotalTime),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Figure 6: gcc runtime vs timeslice interval (virtual seconds)",
		"timeslice(ms)", "native", "fork&others", "sleep", "pipeline", "total")
	for _, row := range rows {
		t.Row(fmt.Sprintf("%.0f", row.TimesliceMSec), row.Native, row.ForkOthers, row.Sleep, row.Pipeline, row.Total)
	}
	return t, rows, nil
}

// Fig7Row is one bar of Figure 7.
type Fig7Row struct {
	MaxSlices int
	Seconds   float64
}

// Fig7 reproduces Figure 7: gcc (icount1) runtime versus the maximum
// number of running slices on the 8-way hyperthreaded machine (16 virtual
// processors). sweep lists the -spmp values; nil uses the paper's
// 1/2/4/8/12/16.
func Fig7(cfg Config, sweep []int) (*report.Table, []Fig7Row, error) {
	cfg.normalize()
	if sweep == nil {
		sweep = []int{1, 2, 4, 8, 12, 16}
	}
	spec, ok := workload.ByName("gcc")
	if !ok {
		return nil, nil, fmt.Errorf("bench: gcc missing from catalog")
	}
	spec = spec.Scaled(cfg.Scale)
	prog, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}

	sec := cfg.Kernel.Cost.Seconds
	rows, err := runIndexed(cfg.Workers, len(sweep), func(i int) (Fig7Row, error) {
		mp := sweep[i]
		opts := core.DefaultOptions()
		opts.SliceMSec = cfg.TimesliceMSec
		opts.MaxSlices = mp
		opts.PinCost = cfg.PinCost
		opts.PinCost.MemSurcharge = spec.SliceMemCost
		opts.NativeMemSurcharge = spec.NativeMemCost
		tool := tools.NewIcount1(nil)
		res, err := core.Run(cfg.Kernel, prog, tool.Factory(), opts)
		if err != nil {
			return Fig7Row{}, err
		}
		if res.Err != nil {
			return Fig7Row{}, fmt.Errorf("bench: fig7 at %d slices: %w", mp, res.Err)
		}
		return Fig7Row{MaxSlices: mp, Seconds: sec(res.TotalTime)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Figure 7: gcc runtime vs max running slices (virtual seconds)",
		"max-slices", "runtime")
	for _, row := range rows {
		t.Row(row.MaxSlices, row.Seconds)
	}
	return t, rows, nil
}

// SigStatsRow summarizes one benchmark's signature-detection behavior.
type SigStatsRow struct {
	Name         string
	Quick        uint64
	Full         uint64
	Stack        uint64
	FullPerQuick float64
	Defaults     int
}

// SigStats reproduces the Section 4.4 statistics: how often the inlined
// quick detector triggers the full architectural check (paper: ~2%), and
// how rarely stack checks run more than once per boundary.
func SigStats(cfg Config) (*report.Table, []SigStatsRow, error) {
	cfg.normalize()
	names := cfg.Benchmarks
	if names == nil {
		names = []string{"gzip", "mcf", "crafty", "mgrid", "gcc"}
	}
	specs, err := resolveSpecs(names)
	if err != nil {
		return nil, nil, err
	}
	rows, err := runIndexed(cfg.Workers, len(specs), func(i int) (SigStatsRow, error) {
		spec := specs[i].Scaled(cfg.Scale)
		prog, err := spec.Build()
		if err != nil {
			return SigStatsRow{}, err
		}
		opts := spOptions(cfg, spec)
		tool := tools.NewIcount2(nil)
		res, err := core.Run(cfg.Kernel, prog, tool.Factory(), opts)
		if err != nil {
			return SigStatsRow{}, err
		}
		if res.Err != nil {
			return SigStatsRow{}, fmt.Errorf("bench: sigstats %s: %w", spec.Name, res.Err)
		}
		st := res.Stats
		ratio := 0.0
		if st.QuickChecks > 0 {
			ratio = 100 * float64(st.FullChecks) / float64(st.QuickChecks)
		}
		return SigStatsRow{
			Name: spec.Name, Quick: st.QuickChecks, Full: st.FullChecks,
			Stack: st.StackChecks, FullPerQuick: ratio, Defaults: st.RegPickDefaults,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Section 4.4: signature detection statistics (icount2 runs)",
		"benchmark", "quick-checks", "full-checks", "stack-checks", "full/quick%", "defaulted-regs")
	for _, r := range rows {
		t.Row(r.Name, r.Quick, r.Full, r.Stack, r.FullPerQuick, r.Defaults)
	}
	return t, rows, nil
}

// Seconds converts cycles to virtual seconds under cfg's cost model.
func (c Config) Seconds(cy kernel.Cycles) float64 {
	return c.Kernel.Cost.Seconds(cy)
}
