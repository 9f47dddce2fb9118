package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"superpin/internal/asm"
	"superpin/internal/bench"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/sa"
	"superpin/internal/tools"
	"superpin/internal/workload"
)

// program is one generated guest program with its serial reference
// results, which every later run of the program is checked against.
type program struct {
	base workload.Spec // seed-named catalog spec, unscaled
	spec workload.Spec // base scaled by the workload's scale
	prog *asm.Program

	native *core.NativeResult
	sp     *core.Result // icount1 at one worker
	// pin holds each serial-Pin tool's virtual result from its first
	// run (icount1's from the reference phase).
	pin map[string]pinVirtual
}

// pinVirtual is the virtual (host-independent) part of a serial-Pin run.
// PinResult's engine and cache counters are host-side and excluded.
type pinVirtual struct {
	Time   kernel.Cycles
	Ins    uint64
	Exit   uint32
	Stdout []byte
	Count  uint64 // the tool's output: instructions counted, or watch hits
}

// sample accumulates one pass's measurements by key. Keys that name a
// metric hold that metric's value; the others are raw sums the metrics
// are derived from (see derive).
type sample map[string]float64

// pass is one timed pass, or the setup or reference phase.
type pass struct {
	id     int
	traced bool         // records spans and attaches the metrics registry
	probe  bool         // times sa.Analyze/AnalyzeIntra beside each analysing call
	m      *obs.Metrics // nil unless traced
	span   int
	s      sample
	probeS float64 // seconds spent in sa probes, excluded from wall_s
}

// runner executes one workload run and checks every operation.
type runner struct {
	w       workloadDef
	kcfg    kernel.Config
	workers int
	progs   []*program
	spans   *spanLog // nil unless tracing

	passes int
	// ops maps each operation the run attempted to whether it failed.
	// An operation is one kind of call on one program, such as
	// "gzip/superpin/workers=2"; the run repeats it in every pass, and
	// it fails when any repetition fails. runs and failedRuns count the
	// repetitions.
	ops              map[string]bool
	runs, failedRuns int
	// wrong counts failures other than a virtual result that differs
	// from the serial reference: errors, wrong tool counts, slices that
	// do not cover the master. Any makes the run's output incorrect.
	wrong    int
	failures []string
}

func newRunner(w workloadDef, workers int, trace bool) *runner {
	r := &runner{w: w, kcfg: bench.DefaultConfig().Kernel, workers: workers, ops: map[string]bool{}}
	if trace {
		r.spans = newSpanLog()
	}
	return r
}

// failedOps returns the run's failed operations, sorted.
func (r *runner) failedOps() []string {
	var out []string
	for op, failed := range r.ops {
		if failed {
			out = append(out, op)
		}
	}
	sort.Strings(out)
	return out
}

// maxFailures bounds the failure descriptions a run keeps.
const maxFailures = 8

// attempt records one repetition of operation op.
func (r *runner) attempt(op string) {
	r.runs++
	if _, ok := r.ops[op]; !ok {
		r.ops[op] = false
	}
}

// fail records that a repetition of operation op failed.
func (r *runner) fail(op string, wrong bool, format string, args ...any) {
	r.failedRuns++
	r.ops[op] = true
	if wrong {
		r.wrong++
	}
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *runner) newPass(traced, probe bool, name string) *pass {
	r.passes++
	ps := &pass{id: r.passes, traced: traced && r.spans != nil, s: sample{}}
	if ps.traced {
		ps.m = obs.NewMetrics()
		ps.probe = probe
		ps.span = r.spans.open(ps.id, 0, name, r.w.Name)
	}
	return ps
}

// timed runs fn as one call of ps into a layer, adds its host seconds to
// the sample under key and records its span.
func (r *runner) timed(ps *pass, name, arg, key string, fn func()) float64 {
	var id int
	if ps.traced {
		id = r.spans.open(ps.id, ps.span, name, arg)
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	r.spans.end(id)
	ps.s[key] += d
	return d
}

// kernelCfg is the kernel configuration for one call of ps.
func (r *runner) kernelCfg(ps *pass) kernel.Config {
	c := r.kcfg
	c.Metrics = ps.m
	return c
}

// setup generates the workload's programs at least reps times and for at
// least seconds, and returns the host seconds of each repetition. The
// last repetition's programs are kept for the run.
func (r *runner) setup(seed int64, reps int, seconds float64) ([]float64, error) {
	specs, err := seededSpecs(r.w.Programs, seed)
	if err != nil {
		return nil, err
	}
	ps := r.newPass(true, false, "setup")
	var times []float64
	start := time.Now()
	for len(times) < reps || time.Since(start).Seconds() < seconds {
		progs := make([]*program, len(specs))
		t0 := time.Now()
		for i, base := range specs {
			p := &program{base: base, spec: base.Scaled(r.w.Scale), pin: map[string]pinVirtual{}}
			r.timed(ps, "workload.Spec.Build", p.spec.Name, "build_s", func() {
				p.prog, err = p.spec.Build()
			})
			if err != nil {
				return nil, err
			}
			progs[i] = p
		}
		times = append(times, time.Since(t0).Seconds())
		r.progs = progs
	}
	r.spans.end(ps.span)
	return times, nil
}

// reference runs every program natively, under serial Pin (icount1) and
// under SuperPin at one worker. Every later run of a program is checked
// against these results, and the virtual-result digest and the sim_*
// metrics come from them. A failure here leaves nothing to check
// against, so it is fatal.
func (r *runner) reference() error {
	ps := r.newPass(true, false, "reference")
	defer r.spans.end(ps.span)
	for _, p := range r.progs {
		r.runNative(ps, p)
		if p.native != nil {
			r.runPin(ps, p, "icount1")
		}
		if _, ok := p.pin["icount1"]; ok {
			r.runSuperPin(ps, p, 1)
		}
		if p.sp == nil {
			return fmt.Errorf("reference run failed: %s", r.failures[len(r.failures)-1])
		}
	}
	return nil
}

// timedPass runs one pass and returns its sample.
func (r *runner) timedPass(run func(*runner, *pass), traced bool) sample {
	ps := r.newPass(traced, true, "pass")
	runtime.GC()
	var gc0 gcStats
	if ps.traced {
		gc0 = readGC()
	}
	heap := startHeapSampler()
	t0 := time.Now()
	run(r, ps)
	wall := time.Since(t0).Seconds()
	peak := heap.finish()
	r.spans.end(ps.span)
	ps.s["wall_s"] = wall - ps.probeS
	ps.s["peak_heap_mb"] = float64(peak) / (1 << 20)
	if ps.traced {
		gc1 := readGC()
		ps.s["gc.alloc_mb"] = float64(gc1.allocBytes-gc0.allocBytes) / (1 << 20)
		ps.s["gc.cycles"] = float64(gc1.cycles - gc0.cycles)
		ps.s["gc.pause_s"] = float64(gc1.pauseNS-gc0.pauseNS) / 1e9
		r.readRegistry(ps)
	}
	return ps.s
}

// newTool returns a serial-Pin tool's factory and output, and whether
// the output is an instruction count (else it is a watchpoint hit count).
func newTool(name string) (core.ToolFactory, func() uint64, bool) {
	switch name {
	case "icount1":
		t := tools.NewIcount1(nil)
		return t.Factory(), t.Total, true
	case "icount2":
		t := tools.NewIcount2(nil)
		return t.Factory(), t.Total, true
	case "watch":
		t := tools.NewWatch(nil, workload.DataReg, workload.DataBase)
		return t.Factory(), t.Hits, false
	case "watch_opaque":
		t := tools.NewWatchOpaque(nil, workload.DataReg, workload.DataBase)
		return t.Factory(), t.Hits, false
	}
	panic("perfbench: unknown tool " + name)
}

// probeSA times the static analyses an analysing call is about to
// perform (n of them), so the traced run can report their share. Probe
// time is excluded from the pass's wall_s.
func (r *runner) probeSA(ps *pass, p *program, n int) {
	if !ps.probe {
		return
	}
	for i := 0; i < n; i++ {
		var an *sa.Analysis
		ps.probeS += r.timed(ps, "sa.Analyze", p.spec.Name, "sa.analyze_s", func() { an = sa.Analyze(p.prog) })
		ps.probeS += r.timed(ps, "sa.AnalyzeIntra", p.spec.Name, "sa.analyze_intra_s", func() { sa.AnalyzeIntra(p.prog) })
		ps.s["sa.blocks"] += float64(an.NumBlocks())
	}
}

func (r *runner) runNative(ps *pass, p *program) {
	op := p.spec.Name + "/native"
	r.attempt(op)
	var res *core.NativeResult
	var err error
	r.timed(ps, "core.RunNative", p.spec.Name, "native.run_s", func() {
		res, err = core.RunNative(r.kernelCfg(ps), p.prog, p.spec.NativeMemCost)
	})
	if err != nil {
		r.fail(op, true, "%s: native: %v", p.spec.Name, err)
		return
	}
	ps.s["native.ins"] += float64(res.Ins)
	if p.native == nil {
		p.native = res
	} else if d := firstDiff(res, p.native); d != "" {
		r.fail(op, false, "%s: native result differs from the reference at %s", p.spec.Name, d)
	}
}

func (r *runner) runPin(ps *pass, p *program, tool string) {
	op := p.spec.Name + "/pin/" + tool
	r.attempt(op)
	factory, output, countsIns := newTool(tool)
	// An instruction count must match the native run. The declared and
	// opaque watchpoints check the same predicate, folded or not, so
	// they must report the same hits.
	want, haveWant := p.native.Ins, true
	if !countsIns {
		var w pinVirtual
		w, haveWant = p.pin["watch"]
		want = w.Count
	}
	cost := pin.DefaultCost()
	cost.MemSurcharge = p.spec.PinMemCost
	r.probeSA(ps, p, 1)
	var res *core.PinResult
	var err error
	r.timed(ps, "core.RunPin", p.spec.Name+"/"+tool, "pin."+tool+".run_s", func() {
		res, err = core.RunPin(r.kernelCfg(ps), p.prog, factory, cost)
	})
	if err != nil {
		r.fail(op, true, "%s: pin %s: %v", p.spec.Name, tool, err)
		return
	}
	ps.s["pin."+tool+".ins"] += float64(res.Ins)
	core.PublishPinMetrics(ps.m, res)
	v := pinVirtual{Time: res.Time, Ins: res.Ins, Exit: res.ExitCode, Stdout: res.Stdout, Count: output()}
	switch ref, seen := p.pin[tool]; {
	case res.Ins != p.native.Ins:
		r.fail(op, true, "%s: pin %s executed %d instructions, native %d", p.spec.Name, tool, res.Ins, p.native.Ins)
	case haveWant && v.Count != want:
		r.fail(op, true, "%s: pin %s output %d, want %d", p.spec.Name, tool, v.Count, want)
	case !seen:
		p.pin[tool] = v
	default:
		if d := firstDiff(v, ref); d != "" {
			r.fail(op, false, "%s: pin %s result differs from its first run at %s", p.spec.Name, tool, d)
		}
	}
}

// spOptions are the SuperPin options for one run of p, matching the
// settings bench.RunBenchmark uses.
func (r *runner) spOptions(p *program, workers int) core.Options {
	opts := core.DefaultOptions()
	opts.SliceMSec = r.w.SliceMSec
	opts.MaxSlices = bench.DefaultConfig().MaxSlices
	opts.PinCost.MemSurcharge = p.spec.SliceMemCost
	opts.NativeMemSurcharge = p.spec.NativeMemCost
	opts.Workers = workers
	return opts
}

func (r *runner) runSuperPin(ps *pass, p *program, workers int) {
	op := fmt.Sprintf("%s/superpin/workers=%d", p.spec.Name, workers)
	r.attempt(op)
	tool := tools.NewIcount1(nil)
	opts := r.spOptions(p, workers)
	opts.Metrics = ps.m
	r.probeSA(ps, p, 1)
	var res *core.Result
	var err error
	r.timed(ps, "core.Run", fmt.Sprintf("%s/workers=%d", p.spec.Name, workers), "superpin.run_s", func() {
		res, err = core.Run(r.kernelCfg(ps), p.prog, tool.Factory(), opts)
	})
	if err != nil {
		r.fail(op, true, "%s: superpin: %v", p.spec.Name, err)
		return
	}
	ps.s["sp.ins"] += float64(res.MasterIns)
	addCoreStats(ps.s, res.Stats)
	r.checkSuperPin(op, p, res, tool.Total(), workers)
}

// checkSuperPin checks one SuperPin result of p, a repetition of
// operation op: no error, the tool counted every native instruction, the
// slices covered the master, and the virtual result is deep-equal to the
// one-worker reference.
func (r *runner) checkSuperPin(op string, p *program, res *core.Result, count uint64, workers int) {
	switch {
	case res.Err != nil:
		r.fail(op, true, "%s: superpin at %d workers: %v", p.spec.Name, workers, res.Err)
	case count != p.native.Ins:
		r.fail(op, true, "%s: superpin at %d workers counted %d, native executed %d", p.spec.Name, workers, count, p.native.Ins)
	case res.SliceIns != res.MasterIns:
		r.fail(op, true, "%s: superpin at %d workers: slices executed %d instructions, master %d", p.spec.Name, workers, res.SliceIns, res.MasterIns)
	case p.sp == nil:
		p.sp = res
	default:
		if d := firstDiff(res, p.sp); d != "" {
			r.fail(op, false, "%s: superpin at %d workers differs from 1 worker at %s", p.spec.Name, workers, d)
		}
	}
}

func (r *runner) runBenchmark(ps *pass, p *program) {
	op := p.spec.Name + "/bench"
	r.attempt(op)
	cfg := bench.DefaultConfig()
	cfg.Scale = r.w.Scale
	cfg.SPWorkers = 1
	cfg.Metrics = ps.m
	r.probeSA(ps, p, 2) // one analysis for the Pin run, one for SuperPin
	var res *bench.Result
	var err error
	r.timed(ps, "bench.RunBenchmark", p.spec.Name, "bench.run_s", func() {
		res, err = bench.RunBenchmark(cfg, p.base, bench.Icount1)
	})
	if err != nil {
		// RunBenchmark checks the tool counts itself.
		r.fail(op, true, "%s: bench: %v", p.spec.Name, err)
		return
	}
	addCoreStats(ps.s, res.Detail.Stats)
	if m := ps.m; m != nil {
		// The harness returns its serial Pin run's fast-path counters
		// only in Result.Host; the SuperPin slices publish theirs.
		h := res.Host
		m.Add("pin.dispatches", h.Dispatches)
		m.Add("pin.superblock.ins", h.SuperblockIns)
		m.Add("pin.link.hits", h.LinkHits)
		m.Add("pin.link.misses", h.LinkMisses)
		m.Add("pin.hot.promotions", h.HotPromotions)
		m.Add("pin.hot.ins", h.HotIns)
		m.Add("pin.hot.hoisted_saves", h.HoistedSaves)
	}
	got := [4]uint64{uint64(res.Native), uint64(res.Pin), uint64(res.SP), res.Ins}
	want := [4]uint64{uint64(p.native.Time), uint64(p.pin["icount1"].Time), uint64(p.sp.TotalTime), p.native.Ins}
	if got != want {
		r.fail(op, false, "%s: bench (native, pin, superpin cycles, ins) = %v, reference %v", p.spec.Name, got, want)
		return
	}
	r.checkSuperPin(op, p, res.Detail, res.Ins, 1)
}

func addCoreStats(s sample, st core.Stats) {
	s["core.forks"] += float64(st.Forks)
	s["core.stalls"] += float64(st.Stalls)
	s["core.quick_checks"] += float64(st.QuickChecks)
	s["core.full_checks"] += float64(st.FullChecks)
	s["core.sys_records"] += float64(st.SysRecords)
}

// quantumSampling is the kernel's wall-time sampling period: it times
// every 16th quantum and pool task, so the histogram sums are scaled up.
const quantumSampling = 16

// readRegistry reads the counters the layers published into the pass's
// metrics registry.
func (r *runner) readRegistry(ps *pass) {
	snap := ps.m.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	g := func(name string) float64 { return snap.Gauges[name] }
	histS := func(name string) float64 { return float64(snap.Hists[name].Sum) / 1e9 }
	s := ps.s
	s["pin.dispatches"] = c("pin.dispatches")
	s["pin.analysis_calls"] = c("pin.analysis_calls")
	s["pin.superblock_ins"] = c("pin.superblock.ins")
	s["pin.pred_save_regs"] = c("pin.sa.pred_save_regs")
	s["pin.folded_preds"] = c("pin.sa.ip.folded")
	s["jit.compiles"] = c("pin.cache.compiles")
	s["jit.compiled_ins"] = c("pin.cache.compiled_ins")
	s["jit.flushes"] = c("pin.cache.flushes")
	s["jit.compile_s"] = histS("pin.compile_ns")
	s["jit.link_lookups"] = c("pin.link.hits") + c("pin.link.misses")
	if s["jit.link_lookups"] > 0 {
		s["jit.link_hit_ratio"] = c("pin.link.hits") / s["jit.link_lookups"]
	}
	s["jit.hot_promotions"] = c("pin.hot.promotions")
	s["jit.hot_ins"] = c("pin.hot.ins")
	s["jit.hoisted_saves"] = c("pin.hot.hoisted_saves")
	s["kernel.quantum_s"] = quantumSampling * histS("kernel.quantum_wall_ns")
	s["kernel.pool.run_s"] = quantumSampling * histS("kernel.pool.run_ns")
	s["kernel.pool.merge_stall_s"] = histS("kernel.pool.merge_stall_ns")
	s["kernel.pool.steal_s"] = histS("kernel.pool.steal_ns")
	s["kernel.pool.park_s"] = histS("kernel.pool.park_ns")
	s["kernel.pool.rounds"] = c("kernel.pool.rounds")
	s["kernel.pool.tasks"] = c("kernel.pool.tasks")
	if sp := s["superpin.run_s"]; sp > 0 && s["kernel.pool.rounds"] > 0 {
		s["kernel.pool.busy_frac"] = s["kernel.pool.run_s"] / (float64(r.workers) * sp)
	}
	s["artifact.hits"] = g("artifact.predecode.hits") + g("artifact.sa.hits") + g("artifact.seed.hits")
	s["artifact.computes"] = g("artifact.predecode.computes") + g("artifact.sa.computes")
	s["artifact.fetch_s"] = histS("artifact.fetch_ns")
}

// derive adds the rate and ratio metrics computed from a sample's raw
// sums.
func derive(s sample) {
	rate := func(ins, secs float64) float64 { return ins / secs / 1e6 }
	if t := s["native.run_s"]; t > 0 {
		s["native_mips"] = rate(s["native.ins"], t)
		s["native.ns_per_ins"] = 1e9 * t / s["native.ins"]
	}
	var pinIns, pinS float64
	for _, tool := range pinTools {
		t, ins := s["pin."+tool+".run_s"], s["pin."+tool+".ins"]
		if t == 0 {
			continue
		}
		pinIns += ins
		pinS += t
		if nt := s["native.run_s"]; nt > 0 {
			s["pin."+tool+".overhead_ns_per_ins"] = 1e9 * (t - nt) / ins
		}
	}
	if pinS > 0 {
		s["pin_mips"] = rate(pinIns, pinS)
	}
	if t := s["superpin.run_s"]; t > 0 {
		s["sp_mips"] = rate(s["sp.ins"], t)
	}
	if w, ok := s["wall_s"]; ok {
		s["perfbench.self_s"] = w - s["native.run_s"] - pinS - s["superpin.run_s"] - s["bench.run_s"]
	}
}

// simMetrics returns the Fig. 3/4 averages over the reference results:
// SuperPin runtime relative to native in percent, and Pin over SuperPin.
func (r *runner) simMetrics() (spPct, speedup float64) {
	for _, p := range r.progs {
		spPct += 100 * float64(p.sp.TotalTime) / float64(p.native.Time)
		speedup += float64(p.pin["icount1"].Time) / float64(p.sp.TotalTime)
	}
	n := float64(len(r.progs))
	return spPct / n, speedup / n
}

// digest hashes every virtual result the run checked against: the
// reference native, Pin and SuperPin results of each program and each
// serial-Pin tool's result. A change that only speeds up the host leaves
// it unchanged.
func (r *runner) digest() (string, error) {
	type entry struct {
		Name   string
		Native *core.NativeResult
		Pin    map[string]pinVirtual
		SP     *core.Result
	}
	entries := make([]entry, len(r.progs))
	for i, p := range r.progs {
		entries[i] = entry{p.spec.Name, p.native, p.pin, p.sp}
	}
	data, err := json.Marshal(entries)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// medians returns, for every key in any of the samples, the median over
// all samples, a missing key counting as zero.
func medians(samples []sample) map[string]float64 {
	keys := map[string]bool{}
	for _, s := range samples {
		for k := range s {
			keys[k] = true
		}
	}
	out := make(map[string]float64, len(keys))
	for k := range keys {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s[k]
		}
		out[k] = median(vals)
	}
	return out
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
