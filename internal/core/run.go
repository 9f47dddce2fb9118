package core

import (
	"superpin/internal/artifact"
	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/kernel"
	"superpin/internal/mem"
	"superpin/internal/pin"
	"superpin/internal/prof"
	"superpin/internal/sa"
)

// NativeResult is the outcome of an uninstrumented baseline run.
type NativeResult struct {
	Time     kernel.Cycles
	Ins      uint64
	Syscalls uint64
	ExitCode uint32
	Stdout   []byte
	// Profile is the run's guest profile (nil unless requested via
	// RunNativeProf).
	Profile *prof.Profile
}

// RunNative executes program natively (no instrumentation, no monitoring)
// on a fresh kernel — the "native" bar of the paper's figures.
func RunNative(cfg kernel.Config, program *asm.Program, memSurcharge kernel.Cycles) (*NativeResult, error) {
	return RunNativeProf(cfg, program, memSurcharge, 0)
}

// RunNativeProf is RunNative with the virtual-time profiler attached when
// profInterval is positive (0 disables profiling). The profiler charges
// no cycles, so the result's timings are identical either way.
func RunNativeProf(cfg kernel.Config, program *asm.Program, memSurcharge kernel.Cycles, profInterval uint64) (*NativeResult, error) {
	return RunNativeCached(cfg, program, memSurcharge, profInterval, nil)
}

// RunNativeCached is RunNativeProf sharing predecoded pages through an
// artifact store (nil runs uncached). A native run has no engine, so the
// store contributes predecode adoption only — still the dominant
// per-run decode cost for short executions.
func RunNativeCached(cfg kernel.Config, program *asm.Program, memSurcharge kernel.Cycles, profInterval uint64, store *artifact.Store) (*NativeResult, error) {
	k := kernel.New(cfg)
	m := mem.New()
	program.LoadInto(m)
	if store != nil {
		m.AdoptPredecode(store.Predecode(artifact.KeyOf(program), program))
	}
	regs := cpu.Regs{PC: program.Entry}
	regs.R[isa.RegSP] = DefaultStackTop
	p := k.Spawn("native", m, regs, kernel.NativeRunner{MemSurcharge: memSurcharge})
	var probe *prof.Probe
	if profInterval > 0 {
		probe = prof.NewProbe(profInterval)
		p.Prof = probe
	}
	if err := k.Run(); err != nil {
		return nil, err
	}
	res := &NativeResult{
		Time:     p.EndTime - p.StartTime,
		ExitCode: p.ExitCode,
		Stdout:   k.Stdout,
	}
	// Multithreaded applications: account the whole thread group.
	for _, q := range k.Procs() {
		if q.Group() == p.Group() {
			res.Ins += q.InsCount
			res.Syscalls += q.SyscallCount
			if q.EndTime > p.StartTime && q.EndTime-p.StartTime > res.Time {
				res.Time = q.EndTime - p.StartTime
			}
		}
	}
	if probe != nil {
		res.Profile = &prof.Profile{Interval: profInterval, TotalIns: res.Ins, Samples: probe.Samples()}
	}
	return res, nil
}

// PinResult is the outcome of a traditional serial Pin run.
type PinResult struct {
	Time     kernel.Cycles
	Ins      uint64
	ExitCode uint32
	Engine   pin.Stats
	Cache    jit.CacheStats
	Stdout   []byte
	// Profile is the run's guest profile (nil unless requested via
	// RunPinProf).
	Profile *prof.Profile
}

// RunPin executes program serially under the instrumentation engine with
// the given tool — traditional Pin mode, the paper's baseline. The tool
// factory receives a ToolCtl outside SuperPin mode (SuperPin() reports
// false, CreateSharedArea returns the local data), so the same tool code
// runs unchanged, exactly as in the paper's Figure 2 example.
func RunPin(cfg kernel.Config, program *asm.Program, factory ToolFactory, cost pin.CostModel) (*PinResult, error) {
	return RunPinProf(cfg, program, factory, cost, 0)
}

// RunPinProf is RunPin with the virtual-time profiler attached when
// profInterval is positive (0 disables profiling). The probe rides on
// the leader process only, so multithreaded guests should not be
// profiled this way; the profiler charges no cycles, so the result's
// timings are identical either way.
func RunPinProf(cfg kernel.Config, program *asm.Program, factory ToolFactory, cost pin.CostModel, profInterval uint64) (*PinResult, error) {
	return RunPinCached(cfg, program, factory, cost, profInterval, nil)
}

// RunPinCached is RunPinProf sharing artifacts through a store (nil runs
// uncached): predecoded pages adopt onto the fresh image, the static
// analysis is fetched instead of recomputed, the engine warm-starts its
// hot tier from the image's seed, and the run's harvested hotness merges
// back at exit. All host-side: results are byte-identical either way.
func RunPinCached(cfg kernel.Config, program *asm.Program, factory ToolFactory, cost pin.CostModel, profInterval uint64, store *artifact.Store) (*PinResult, error) {
	var key artifact.Key
	if store != nil {
		key = artifact.KeyOf(program)
	}
	k := kernel.New(cfg)
	m := mem.New()
	program.LoadInto(m)
	if store != nil {
		m.AdoptPredecode(store.Predecode(key, program))
	}
	regs := cpu.Regs{PC: program.Entry}
	regs.R[isa.RegSP] = DefaultStackTop

	e := pin.NewEngine(cost)
	ctl := &ToolCtl{sliceNum: -1} // EndSlice is a no-op outside SuperPin
	tool := factory(ctl)
	e.AddTraceInstrumenter(tool.Instrument)

	// Load-time static analysis: verify the image and hand the engine the
	// liveness/predecode summaries (-nosa skips both).
	var an *sa.Analysis
	if !cost.NoSA {
		if store != nil {
			an = store.Analysis(key, program)
		} else {
			an = sa.Analyze(program)
		}
		if err := an.Err(); err != nil {
			return nil, err
		}
		e.SA = an
	}
	var warm *jit.WarmSeed
	if store != nil {
		warm = store.Seed(key)
		e.Warm = warm
	}

	// Threads each get their own engine (their own code cache and
	// execution state), all instrumented by the same tool instance —
	// like real Pin, where the Pintool is process-wide.
	k.ThreadRunner = func(*kernel.Proc) kernel.Runner {
		te := pin.NewEngine(cost)
		te.SA = an
		te.Warm = warm
		te.AddTraceInstrumenter(tool.Instrument)
		return te
	}

	p := k.Spawn("pin", m, regs, e)
	var probe *prof.Probe
	if profInterval > 0 {
		probe = prof.NewProbe(profInterval)
		p.Prof = probe
	}
	if cfg.Trace != nil {
		e.AttachObs(cfg.Trace, int32(p.PID))
	}
	if cfg.Metrics != nil {
		e.AttachMetrics(cfg.Metrics)
		store.AttachMetrics(cfg.Metrics)
	}
	if err := k.Run(); err != nil {
		return nil, err
	}
	if fin, ok := tool.(Finisher); ok {
		fin.Fini(p.ExitCode)
	}
	if store != nil {
		// Publish this run's trace hotness for the next execution's
		// warm start (the leader engine's cache; thread engines are
		// short-lived and not harvested).
		seed := jit.NewWarmSeed()
		e.HarvestWarm(seed)
		store.MergeSeed(key, seed)
	}
	res := &PinResult{
		Time:     p.EndTime - p.StartTime,
		ExitCode: p.ExitCode,
		Engine:   e.Stats(),
		Cache:    e.CacheStats(),
		Stdout:   k.Stdout,
	}
	for _, q := range k.Procs() {
		if q.Group() == p.Group() {
			res.Ins += q.InsCount
			if q.EndTime > p.StartTime && q.EndTime-p.StartTime > res.Time {
				res.Time = q.EndTime - p.StartTime
			}
		}
	}
	if probe != nil {
		res.Profile = &prof.Profile{Interval: profInterval, TotalIns: res.Ins, Samples: probe.Samples()}
	}
	return res, nil
}
