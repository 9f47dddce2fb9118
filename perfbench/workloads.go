package main

import (
	"fmt"

	"superpin/internal/bench"
	"superpin/internal/workload"
)

// workloadDef is one named workload: which catalog programs it runs, at
// what scale, with what SuperPin settings, and what one timed pass does.
type workloadDef struct {
	Name string
	// Programs are catalog names; nil means the whole catalog.
	Programs []string
	// Scale multiplies each program's run length (workload.Spec.Scaled).
	Scale float64
	// SliceMSec is the timeslice of every SuperPin run the workload
	// makes, the reference runs included.
	SliceMSec float64
	// Pass performs one timed pass over the workload's programs.
	Pass func(r *runner, ps *pass)
	// Side makes, after each untraced pass, the calls Pass does not
	// make, so every end-to-end rate is measured on every workload. Its
	// time is not part of wall_s.
	Side func(r *runner, ps *pass)
}

// workloads returns the benchmark's workloads. Scales are chosen so a
// pass takes one to three seconds on a 2-CPU host: enough passes fit in
// a run for a steady median, and each pass is long enough that timer
// and scheduler noise stay small.
func workloads() []workloadDef {
	suite := bench.DefaultConfig()
	return []workloadDef{
		{
			// Serial closed loop: steady-state dispatch dominates (cpu
			// interpreter, pin linking and superblocks, jit hot tier,
			// If-call folding under the declared watch, spill hoisting
			// under the opaque one). Branchy integer, FP, memory-bound.
			Name:      "pin-steady",
			Programs:  []string{"gzip", "crafty", "mgrid", "mcf"},
			Scale:     0.5,
			SliceMSec: suite.TimesliceMSec,
			Pass:      (*runner).pinSteadyPass,
			Side:      (*runner).superpinSide,
		},
		{
			// The only workload where the kernel pool, slice fork,
			// signatures, merge, COW and cold per-slice code caches do
			// most of the work. gcc: code footprint beyond the code
			// cache and syscall forks; mcf: memory-bound, heavy COW;
			// gzip: I/O syscall playback.
			Name:      "superpin-par",
			Programs:  []string{"gcc", "mcf", "gzip"},
			Scale:     0.1,
			SliceMSec: 20,
			Pass:      (*runner).superpinParPass,
			Side:      (*runner).superpinParSide,
		},
		{
			// Figure-regeneration traffic: per-run set-up (build,
			// sa.Analyze, predecode, trace compile) dominates. Harness
			// defaults: serial, no shared artifact store.
			Name:      "suite-cold",
			Scale:     0.02,
			SliceMSec: suite.TimesliceMSec,
			Pass:      (*runner).suiteColdPass,
			Side:      (*runner).tripleSide,
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// seededSpecs returns the workload's catalog specs for a seed. The
// generator seeds its code-shape RNG from Spec.Name alone, so a
// seed-suffixed name yields a different program with the same
// parameters; seed 0 keeps the catalog programs.
func seededSpecs(names []string, seed int64) ([]workload.Spec, error) {
	if names == nil {
		names = workload.Names()
	}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown catalog program %q", n)
		}
		if seed != 0 {
			s.Name = fmt.Sprintf("%s.s%d", n, seed)
		}
		specs[i] = s
	}
	return specs, nil
}

// pinSteadyPass runs each program natively, then under serial Pin with
// each tool in turn.
func (r *runner) pinSteadyPass(ps *pass) {
	for _, p := range r.progs {
		r.runNative(ps, p)
		for _, tool := range pinTools {
			r.runPin(ps, p, tool)
		}
	}
}

// superpinParPass runs each program under SuperPin (icount1) with one
// host worker per CPU.
func (r *runner) superpinParPass(ps *pass) {
	for _, p := range r.progs {
		r.runSuperPin(ps, p, r.workers)
	}
}

// suiteColdPass regenerates the Fig. 3/4 triple for every program
// through the experiment harness, with its defaults.
func (r *runner) suiteColdPass(ps *pass) {
	for _, p := range r.progs {
		r.runBenchmark(ps, p)
	}
}

// superpinSide runs each program under SuperPin at one worker.
func (r *runner) superpinSide(ps *pass) {
	for _, p := range r.progs {
		r.runSuperPin(ps, p, 1)
	}
}

// serialSide runs each program natively and under serial Pin (icount1).
func (r *runner) serialSide(ps *pass) {
	for _, p := range r.progs {
		r.runNative(ps, p)
		r.runPin(ps, p, "icount1")
	}
}

// superpinParSide is serialSide three times over: superpin-par's
// programs are short, and one run of each leaves its rates at the mercy
// of a few milliseconds of host noise.
func (r *runner) superpinParSide(ps *pass) {
	for i := 0; i < 3; i++ {
		r.serialSide(ps)
	}
}

// tripleSide makes bench.RunBenchmark's three calls one by one, so each
// is timed on its own.
func (r *runner) tripleSide(ps *pass) {
	r.serialSide(ps)
	r.superpinSide(ps)
}
