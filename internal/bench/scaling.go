package bench

import (
	"fmt"
	"time"

	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/workload"
)

// ScalePoint is one host-parallelism measurement: the wall-clock time of
// a serial sweep of SuperPin-only runs over the configured benchmarks at
// the given per-run worker count, and the speedup relative to the first
// point of the sweep.
type ScalePoint struct {
	Workers    int     `json:"workers"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Speedup    float64 `json:"speedup"`
}

// RunScaling measures wall-clock versus per-run worker count: for each
// entry of workers it runs SuperPin (icount1) over every configured
// benchmark back to back — host fan-out deliberately disabled, so the
// slice-level worker pool is the only parallelism — and records the
// sweep's wall-clock time. Virtual results must be identical at every
// worker count (the summed TotalTime is asserted); only the host time
// may change.
func RunScaling(cfg Config, workers []int) ([]ScalePoint, error) {
	cfg.normalize()
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}

	// Build every program once, outside the timed region.
	progs := make([]scaleProg, len(specs))
	for i, spec := range specs {
		spec = spec.Scaled(cfg.Scale)
		p, err := spec.Build()
		if err != nil {
			return nil, err
		}
		progs[i] = scaleProg{spec: spec, prog: p}
	}

	points := make([]ScalePoint, 0, len(workers))
	var refCycles kernel.Cycles
	for i, w := range workers {
		var total kernel.Cycles
		start := time.Now()
		for _, pr := range progs {
			opts := spOptions(cfg, pr.spec)
			opts.Workers = w
			tool := newTool(Icount1)
			res, err := core.Run(cfg.Kernel, pr.prog, tool.Factory(), opts)
			if err != nil {
				return nil, fmt.Errorf("scaling %s (workers=%d): %w", pr.spec.Name, w, err)
			}
			if res.Err != nil {
				return nil, fmt.Errorf("scaling %s (workers=%d): %w", pr.spec.Name, w, res.Err)
			}
			total += res.TotalTime
		}
		elapsed := time.Since(start).Seconds()
		if i == 0 {
			refCycles = total
		} else if total != refCycles {
			return nil, fmt.Errorf("scaling: virtual cycles diverged at %d workers: %d vs %d",
				w, total, refCycles)
		}
		pt := ScalePoint{Workers: w, ElapsedSec: elapsed}
		if base := points; len(base) > 0 && elapsed > 0 {
			pt.Speedup = base[0].ElapsedSec / elapsed
		} else {
			pt.Speedup = 1
		}
		points = append(points, pt)
	}
	return points, nil
}

// scaleProg pairs a scaled spec with its built program.
type scaleProg struct {
	spec workload.Spec
	prog *asm.Program
}
