package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (perfbench_test.go keeps the two in step);
// Layer and Moves exist only here, because BENCHMARK.json admits no other
// keys.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Layer is the repository package (or "go" for the Go runtime,
	// "perfbench" for the benchmark's own harness) whose work the metric
	// measures; empty for end-to-end metrics.
	Layer string
	// Moves names the end-to-end metric, and the workload, a change to
	// this layer should move.
	Moves string
}

// endToEnd are the metrics a user of the system sees, printed with
// -trace 0. Every workload reports every one. Each host rate comes from
// the workload's passes where they make the call (RunNative and RunPin on
// pin-steady, core.Run on superpin-par) and from its side passes
// otherwise; the sim_* metrics are virtual cycles of the reference runs,
// exact for a given seed.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "native_mips", Unit: "Mins/s", Better: "higher"},
	{Name: "pin_mips", Unit: "Mins/s", Better: "higher"},
	{Name: "sp_mips", Unit: "Mins/s", Better: "higher"},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "sim_sp_pct", Unit: "%", Better: "lower"},
	{Name: "sim_speedup", Unit: "x", Better: "higher"},
}

// pinTools are the serial-Pin tools pin-steady runs, in run order.
var pinTools = []string{"icount1", "icount2", "watch", "watch_opaque"}

// perLayer are the traced run's metrics (-trace 1): medians over the
// traced passes, zero where the workload's passes give the layer no work.
var perLayer = append(append([]metricDef{
	{Name: "workload.build_s", Unit: "s", Better: "lower", Layer: "workload", Moves: "setup_s on every workload, most on suite-cold"},
	{Name: "sa.analyze_s", Unit: "s", Better: "lower", Layer: "sa", Moves: "pin_mips and wall_s on suite-cold; no change on pin-steady"},
	{Name: "sa.analyze_intra_s", Unit: "s", Better: "lower", Layer: "sa", Moves: "comparison point for sa.analyze_s (the -saintra tier)"},
	{Name: "sa.blocks", Unit: "count", Better: "lower", Layer: "sa", Moves: "sa.analyze_s on suite-cold"},
	{Name: "artifact.hits", Unit: "count", Better: "higher", Layer: "artifact", Moves: "wall_s on suite-cold (zero until a store is shared)"},
	{Name: "artifact.computes", Unit: "count", Better: "lower", Layer: "artifact", Moves: "wall_s on suite-cold (zero until a store is shared)"},
	{Name: "artifact.fetch_s", Unit: "s", Better: "lower", Layer: "artifact", Moves: "wall_s on suite-cold (zero until a store is shared)"},
	{Name: "native.run_s", Unit: "s", Better: "lower", Layer: "cpu", Moves: "native_mips on pin-steady"},
	{Name: "native.ns_per_ins", Unit: "ns", Better: "lower", Layer: "cpu", Moves: "native_mips on pin-steady"},
}, toolMetrics()...), []metricDef{
	{Name: "pin.dispatches", Unit: "count", Better: "lower", Layer: "pin", Moves: "pin_mips on pin-steady"},
	{Name: "pin.analysis_calls", Unit: "count", Better: "lower", Layer: "pin", Moves: "pin_mips on pin-steady"},
	{Name: "pin.superblock_ins", Unit: "count", Better: "higher", Layer: "pin", Moves: "pin_mips on pin-steady"},
	{Name: "pin.pred_save_regs", Unit: "count", Better: "lower", Layer: "pin", Moves: "pin_mips on pin-steady"},
	{Name: "pin.folded_preds", Unit: "count", Better: "higher", Layer: "pin", Moves: "pin_mips on pin-steady"},
	{Name: "jit.compiles", Unit: "count", Better: "lower", Layer: "jit", Moves: "sp_mips on superpin-par, wall_s on suite-cold"},
	{Name: "jit.compiled_ins", Unit: "count", Better: "lower", Layer: "jit", Moves: "sp_mips on superpin-par, wall_s on suite-cold"},
	{Name: "jit.flushes", Unit: "count", Better: "lower", Layer: "jit", Moves: "sp_mips on superpin-par, wall_s on suite-cold"},
	{Name: "jit.compile_s", Unit: "s", Better: "lower", Layer: "jit", Moves: "sp_mips on superpin-par, wall_s on suite-cold"},
	{Name: "jit.link_hit_ratio", Unit: "frac", Better: "higher", Layer: "jit", Moves: "pin_mips on pin-steady"},
	{Name: "jit.link_lookups", Unit: "count", Better: "lower", Layer: "jit", Moves: "base of jit.link_hit_ratio"},
	{Name: "jit.hot_promotions", Unit: "count", Better: "higher", Layer: "jit", Moves: "pin_mips on pin-steady"},
	{Name: "jit.hot_ins", Unit: "count", Better: "higher", Layer: "jit", Moves: "pin_mips on pin-steady"},
	{Name: "jit.hoisted_saves", Unit: "count", Better: "higher", Layer: "jit", Moves: "pin_mips on pin-steady"},
	{Name: "kernel.quantum_s", Unit: "s", Better: "lower", Layer: "kernel", Moves: "sp_mips on superpin-par"},
	{Name: "kernel.pool.run_s", Unit: "s", Better: "lower", Layer: "kernel", Moves: "sp_mips on superpin-par"},
	{Name: "kernel.pool.merge_stall_s", Unit: "s", Better: "lower", Layer: "kernel", Moves: "sp_mips on superpin-par"},
	{Name: "kernel.pool.steal_s", Unit: "s", Better: "lower", Layer: "kernel", Moves: "sp_mips on superpin-par"},
	{Name: "kernel.pool.park_s", Unit: "s", Better: "lower", Layer: "kernel", Moves: "sp_mips on superpin-par"},
	{Name: "kernel.pool.rounds", Unit: "count", Better: "lower", Layer: "kernel", Moves: "sp_mips on superpin-par"},
	{Name: "kernel.pool.tasks", Unit: "count", Better: "lower", Layer: "kernel", Moves: "sp_mips on superpin-par"},
	{Name: "kernel.pool.busy_frac", Unit: "frac", Better: "higher", Layer: "kernel", Moves: "sp_mips on superpin-par"},
	{Name: "superpin.run_s", Unit: "s", Better: "lower", Layer: "core", Moves: "sp_mips on superpin-par"},
	{Name: "core.forks", Unit: "count", Better: "lower", Layer: "core", Moves: "sp_mips on superpin-par"},
	{Name: "core.stalls", Unit: "count", Better: "lower", Layer: "core", Moves: "sp_mips on superpin-par"},
	{Name: "core.quick_checks", Unit: "count", Better: "lower", Layer: "core", Moves: "sp_mips on superpin-par"},
	{Name: "core.full_checks", Unit: "count", Better: "lower", Layer: "core", Moves: "sp_mips on superpin-par"},
	{Name: "core.sys_records", Unit: "count", Better: "lower", Layer: "core", Moves: "sp_mips on superpin-par"},
	{Name: "gc.alloc_mb", Unit: "MiB", Better: "lower", Layer: "go", Moves: "peak_heap_mb and sp_mips on superpin-par"},
	{Name: "gc.cycles", Unit: "count", Better: "lower", Layer: "go", Moves: "peak_heap_mb and sp_mips on superpin-par"},
	{Name: "gc.pause_s", Unit: "s", Better: "lower", Layer: "go", Moves: "peak_heap_mb and sp_mips on superpin-par"},
	{Name: "bench.run_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "wall_s on suite-cold"},
	{Name: "perfbench.self_s", Unit: "s", Better: "lower", Layer: "perfbench", Moves: "wall_s on every workload (harness overhead)"},
	{Name: "trace.wall_s", Unit: "s", Better: "lower", Layer: "perfbench", Moves: "traced counterpart of wall_s"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower", Layer: "perfbench", Moves: "traced minus untraced wall_s"},
}...)

// toolMetrics returns the per-tool serial-Pin metrics: host seconds per
// pass, and host overhead over native per guest instruction.
func toolMetrics() []metricDef {
	var out []metricDef
	for _, t := range pinTools {
		out = append(out,
			metricDef{Name: "pin." + t + ".run_s", Unit: "s", Better: "lower", Layer: "pin", Moves: "pin_mips on pin-steady"},
			metricDef{Name: "pin." + t + ".overhead_ns_per_ins", Unit: "ns", Better: "lower", Layer: "pin", Moves: "pin_mips on pin-steady"})
	}
	return out
}
