package core

import (
	"errors"
	"fmt"
	"time"

	"superpin/internal/artifact"
	"superpin/internal/asm"
	"superpin/internal/cpu"
	"superpin/internal/isa"
	"superpin/internal/jit"
	"superpin/internal/kernel"
	"superpin/internal/mem"
	"superpin/internal/obs"
	"superpin/internal/pin"
	"superpin/internal/prof"
	"superpin/internal/sa"
)

// Stats are SuperPin execution statistics, including the Section 4.4
// signature-detection counters the paper reports (quick checks vs. full
// checks vs. stack checks).
type Stats struct {
	Forks        int // total slices spawned
	SyscallForks int // slices whose predecessor ended at a syscall
	TimeoutForks int // timer-driven slices (trampoline spawns)
	Stalls       int // times the master slept to respect MaxSlices

	SysRecords uint64 // system calls recorded for playback

	QuickChecks       uint64 // inlined two-register checks executed
	FullChecks        uint64 // full register-state checks (quick matched)
	StackChecks       uint64 // stack-window comparisons (registers matched)
	FalseQuickMatches uint64 // quick matched but the full check failed

	RegPickDefaults int // recordings that fell back to default registers
	MemProbes       int // signatures carrying a memory probe (MemCheck)
	Divergences     int // slices that diverged from the master's history

	BubbleAddr uint32 // guest address of the reserved code-cache bubble
}

// Result is the outcome of a SuperPin run.
type Result struct {
	// ExitCode is the application's exit code.
	ExitCode uint32
	// MasterEnd is the virtual time at which the master application
	// exited (the near-native completion point).
	MasterEnd kernel.Cycles
	// TotalTime is the virtual time at which the last slice completed
	// and merged — the SuperPin runtime the paper's figures report.
	TotalTime kernel.Cycles
	// MasterSleep is the total time the master stalled to avoid
	// exceeding MaxSlices (the "sleep" component of Figure 6).
	MasterSleep kernel.Cycles
	// MasterIns and SliceIns count instructions executed by the master
	// and by all slices; they are equal in a correct run (every master
	// instruction is covered by exactly one slice).
	MasterIns uint64
	SliceIns  uint64
	// Slices summarizes each timeslice.
	Slices []SliceInfo
	// Stats are the engine statistics.
	Stats Stats
	// Stdout is the application's console output (written once, by the
	// master; slices' replayed writes are suppressed).
	Stdout []byte
	// Profile is the merged guest profile (nil unless
	// Options.ProfInterval was set): the slices' sample streams
	// concatenated in slice-merge order, byte-identical to a serial
	// profile of the same program.
	Profile *prof.Profile
	// Err aggregates slice divergences and guest faults, nil on a clean
	// run.
	Err error
}

// Breakdown decomposes the SuperPin runtime into the Figure 6 components,
// given the application's native (uninstrumented, unmonitored) runtime:
// native time, fork & other master overhead, master sleep (stall), and
// pipeline delay.
func (r *Result) Breakdown(native kernel.Cycles) (nat, forkOthers, sleep, pipeline kernel.Cycles) {
	nat = native
	sleep = r.MasterSleep
	pipeline = r.TotalTime - r.MasterEnd
	active := r.MasterEnd - sleep
	if active > native {
		forkOthers = active - native
	}
	return nat, forkOthers, sleep, pipeline
}

// Engine orchestrates one SuperPin run: the uninstrumented master, the
// control process (a ptrace hook on the master), the timer process, and
// the instrumented slices.
type Engine struct {
	k       *kernel.Kernel
	opts    Options
	factory ToolFactory

	master     *kernel.Proc
	masterCtl  *ToolCtl
	masterTool Tool

	slices        []*slice
	open          *slice // newest slice, waiting for its end boundary
	curRecords    []sysRecord
	mergedThrough int
	runningCount  int

	pendingFork     bool
	pendingBoundary boundaryKind
	masterExited    bool
	exitCode        uint32
	lastFork        kernel.Cycles
	timer           *kernel.Timer
	endTime         kernel.Cycles

	sharedAreas  [][]uint64
	sharedTraces *jit.TraceCache // non-nil with Options.SharedCodeCache
	masterRing   *kernel.IPRing  // non-nil with DetectorIPHistory
	sa           *sa.Analysis    // load-time static analysis (nil with PinCost.NoSA)

	// artKey/warmSeed carry the Options.Artifacts state for the run: the
	// image's content key and the warm-start seed snapshot taken before
	// the first fork (nil without a store or on a cold image).
	artKey   artifact.Key
	warmSeed *jit.WarmSeed

	// masterProbe (non-nil with Options.ProfInterval) shadows the
	// master's call stack without recording, so each fork can seed its
	// slice's recording probe; profSamples accumulates the slices'
	// samples in merge order.
	masterProbe *prof.Probe
	profSamples []prof.Sample
	profDepth   int

	// group is the master thread group (leader first); curBursts is the
	// schedule log accumulated since the last fork (Options.Threads).
	group     []*kernel.Proc
	curBursts []burst

	// workers is the resolved host-parallelism degree (see
	// Options.Workers); above 1 the slices' guest-phase events are
	// privately buffered and drained at the serial walk position.
	workers int

	stats Stats
	errs  []error
}

// sharedArea returns (allocating on first use) the family-wide shared
// region with the given index, the backing store for SP_CreateSharedArea.
func (e *Engine) sharedArea(idx, size int) []uint64 {
	for len(e.sharedAreas) <= idx {
		e.sharedAreas = append(e.sharedAreas, nil)
	}
	if e.sharedAreas[idx] == nil {
		e.sharedAreas[idx] = make([]uint64, size)
	}
	if len(e.sharedAreas[idx]) != size {
		panic(fmt.Sprintf("core: shared area %d size mismatch: %d vs %d",
			idx, len(e.sharedAreas[idx]), size))
	}
	return e.sharedAreas[idx]
}

// Run executes program under SuperPin on a fresh kernel with the given
// machine configuration.
func Run(cfg kernel.Config, program *asm.Program, factory ToolFactory, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	// One tracer serves the whole run: reconcile the two attachment
	// points so kernel events (processes, scheduling) and core events
	// (slice lifecycle) land in the same stream.
	if opts.Trace == nil {
		opts.Trace = cfg.Trace
	} else {
		cfg.Trace = opts.Trace
	}
	// Same reconciliation for the metrics registry, so kernel-side live
	// telemetry (retired-ins counter, pool-phase histograms) and core-side
	// run statistics land in one registry.
	if opts.Metrics == nil {
		opts.Metrics = cfg.Metrics
	} else {
		cfg.Metrics = opts.Metrics
	}
	if opts.Workers != 0 {
		cfg.Workers = opts.Workers
	}
	k := kernel.New(cfg)
	e := &Engine{k: k, opts: opts, factory: factory,
		workers: kernel.ResolveWorkers(cfg.Workers)}
	if opts.SharedCodeCache {
		e.sharedTraces = jit.NewTraceCache()
		// Traces built by a slice during a quantum publish into the
		// shared cache at the quantum barrier, in slice order — the same
		// schedule whether the guest phases ran serially or on pool
		// workers, so shared-cache hit patterns (and therefore timing)
		// are identical at every worker count.
		k.QuantumHook = func() {
			for _, sl := range e.slices {
				sl.eng.PublishShared()
			}
		}
	}
	// Artifact cache: resolve the image key once; the analysis,
	// predecode set and warm seed below all come through the store when
	// one is attached, shared with every other execution of this image.
	if opts.Artifacts != nil {
		// Disk-fetch latency lands in the run's registry (nil detaches).
		opts.Artifacts.AttachMetrics(opts.Metrics)
		e.artKey = artifact.KeyOf(program)
		// Snapshot the warm seed once, before the first fork: every
		// slice of this run sees the same immutable snapshot, so
		// promotion points stay a pure function of this run's virtual
		// execution no matter what other runs merge concurrently.
		e.warmSeed = opts.Artifacts.Seed(e.artKey)
	}

	// Load-time static analysis: verify the image once, then share the
	// read-only liveness/predecode summaries with every slice engine the
	// run forks (-nosa skips both).
	if !opts.PinCost.NoSA {
		var an *sa.Analysis
		if opts.Artifacts != nil {
			an = opts.Artifacts.Analysis(e.artKey, program)
		} else {
			an = sa.Analyze(program)
		}
		if err := an.Err(); err != nil {
			return nil, err
		}
		e.sa = an
	}

	// The master runs the application uninstrumented, traced by the
	// control process (this engine) via the syscall hook. The rejected
	// IP-history detector additionally requires branch-tracing the
	// master, charged per instruction.
	m := mem.New()
	program.LoadInto(m)
	if opts.Artifacts != nil {
		// Adopt the shared predecoded views onto the freshly loaded
		// image; slices inherit them through the copy-on-write fork.
		m.AdoptPredecode(opts.Artifacts.Predecode(e.artKey, program))
	}
	regs := cpu.Regs{PC: program.Entry}
	regs.R[isa.RegSP] = DefaultStackTop
	runner := kernel.NativeRunner{MemSurcharge: opts.NativeMemSurcharge}
	if opts.Detector == DetectorIPHistory {
		e.masterRing = kernel.NewIPRing(opts.IPHistoryLen)
		runner.Ring = e.masterRing
		runner.RingCost = 1
	}
	e.master = k.Spawn("master", m, regs, runner)
	e.master.Hook = e
	if opts.ProfInterval > 0 {
		// The master's probe only maintains the shadow stack (observer
		// mode): samples are taken by the slices, which cover the
		// instruction stream exactly once between them.
		e.masterProbe = prof.NewObserver(opts.ProfInterval)
		e.master.Prof = e.masterProbe
	}
	e.group = []*kernel.Proc{e.master}
	if opts.Threads {
		// Deterministic thread replay (Section 8 future work): record
		// the master group's schedule as a burst log.
		e.master.BurstHook = func(n uint64) { e.addBurst(e.master.PID, n) }
	}

	// Without Options.Threads, SuperPin does not support multithreaded
	// applications (the paper defers this to future work — Section 8:
	// "this will require deterministic replay of threads"). If the
	// traced application spawns a thread, abort the run cleanly rather
	// than let slices replay an interleaving they cannot reproduce.
	k.ThreadHook = func(parent, child *kernel.Proc) {
		if parent.Group() != e.master.Group() {
			return
		}
		if opts.Threads {
			e.registerThread(child)
			return
		}
		e.errs = append(e.errs, fmt.Errorf(
			"core: application spawned a thread (pid %d): multithreaded applications are not supported by SuperPin without Options.Threads (paper Section 8 future work)",
			child.PID))
		e.masterExited = true
		if e.timer != nil {
			e.timer.Cancel()
		}
		for _, q := range k.Procs() {
			if !q.Exited() {
				k.Exit(q, ^uint32(0))
			}
		}
	}

	// The master's tool instance owns shared state and final output.
	e.masterCtl = &ToolCtl{eng: e, sliceNum: -1}
	e.masterTool = factory(e.masterCtl)

	// Reserve the anonymous memory bubble (Section 4.1): a placeholder
	// region of the guest address space where each slice's code cache
	// and VM structures are allocated, keeping them clear of application
	// allocations so memory mappings stay identical between master and
	// slices. In this simulation the VM's own structures live outside
	// guest memory, so the reservation is address-space bookkeeping.
	e.stats.BubbleAddr = e.master.MmapTop
	e.master.MmapTop += uint32(opts.BubblePages) * mem.PageSize

	// Fork the first instrumented timeslice at the start of execution.
	e.doFork(boundaryOpen)
	e.armTimer()

	kerr := k.Run()

	// Publish the slices' harvested trace hotness back to the artifact
	// store as one merged delta, so the next execution of this image
	// warm-starts its second tier. Per-trace folding is commutative, so
	// the merged seed is identical at every worker count.
	if opts.Artifacts != nil {
		seed := jit.NewWarmSeed()
		for _, sl := range e.slices {
			sl.eng.HarvestWarm(seed)
		}
		opts.Artifacts.MergeSeed(e.artKey, seed)
	}

	// Fold the slices' privately accumulated guest-phase counters into
	// the run statistics in slice order: totals are identical at every
	// worker count.
	for _, sl := range e.slices {
		e.stats.QuickChecks += sl.stats.quickChecks
		e.stats.FullChecks += sl.stats.fullChecks
		e.stats.StackChecks += sl.stats.stackChecks
		e.stats.FalseQuickMatches += sl.stats.falseQuickMatches
		e.stats.Divergences += sl.stats.divergences
	}

	res := &Result{
		ExitCode:    e.exitCode,
		MasterEnd:   e.master.EndTime,
		TotalTime:   e.endTime,
		MasterSleep: e.master.SleepTime,
		Stats:       e.stats,
		Stdout:      k.Stdout,
	}
	for _, q := range e.group {
		res.MasterIns += q.InsCount
	}
	for _, sl := range e.slices {
		res.SliceIns += sl.proc.InsCount
		res.Slices = append(res.Slices, sl.info())
		if sl.err != nil {
			e.errs = append(e.errs, sl.err)
		}
	}
	if e.mergedThrough != len(e.slices) {
		e.errs = append(e.errs,
			fmt.Errorf("core: only %d of %d slices merged", e.mergedThrough, len(e.slices)))
	}
	if e.masterProbe != nil {
		res.Profile = &prof.Profile{
			Interval: e.opts.ProfInterval,
			TotalIns: res.MasterIns,
			Samples:  e.profSamples,
		}
	}
	res.Err = errors.Join(e.errs...)
	e.publishMetrics(res)

	if fin, ok := e.masterTool.(Finisher); ok {
		fin.Fini(e.exitCode)
	}
	if kerr != nil {
		return res, kerr
	}
	return res, nil
}

// DefaultStackTop is the initial guest stack pointer.
const DefaultStackTop uint32 = 0x00f0_0000

// sliceCycles returns the current timeslice interval in cycles, applying
// the Section 8 adaptive throttle when configured: as the application
// approaches its expected end, the interval shrinks toward MinSliceMSec
// so the final slices are short and the pipeline drains quickly.
func (e *Engine) sliceCycles() kernel.Cycles {
	cost := e.k.Config().Cost
	base := cost.MSec(e.opts.SliceMSec)
	if e.opts.ExpectedAppMSec <= 0 {
		return base
	}
	expectedEnd := cost.MSec(e.opts.ExpectedAppMSec)
	minSlice := cost.MSec(e.opts.MinSliceMSec)
	if e.k.Now >= expectedEnd {
		return minSlice
	}
	remaining := expectedEnd - e.k.Now
	adaptive := remaining / kernel.Cycles(e.opts.MaxSlices)
	if adaptive > base {
		return base
	}
	if adaptive < minSlice {
		return minSlice
	}
	return adaptive
}

// armTimer schedules the timer process's next check: if no slice has been
// forked within the timeslice interval, stop the master and spawn one
// through the trampoline (Section 4.3).
func (e *Engine) armTimer() {
	if e.masterExited {
		return
	}
	target := e.lastFork + e.sliceCycles()
	delay := kernel.Cycles(1)
	if target > e.k.Now {
		delay = target - e.k.Now
	}
	e.timer = e.k.AddTimer(delay, func() {
		if e.masterExited {
			return
		}
		if !e.pendingFork && e.master.State == kernel.StateRunnable &&
			e.k.Now >= e.lastFork+e.sliceCycles() {
			e.requestFork(boundaryTimeout)
		}
		e.armTimer()
	})
}

// Entry implements kernel.SyscallHook; the control process does its work
// after the syscall completes.
func (e *Engine) Entry(*kernel.Kernel, *kernel.Proc, uint32, [4]uint32) (bool, kernel.SyscallOutcome) {
	return false, kernel.SyscallOutcome{}
}

// Exit implements kernel.SyscallHook: after each master system call the
// control process either records its effects for slice playback or forces
// a new timeslice at this boundary (Section 4.2).
func (e *Engine) Exit(k *kernel.Kernel, p *kernel.Proc, sysno uint32, args [4]uint32, out kernel.SyscallOutcome) {
	rec := sysRecord{Sysno: sysno, Args: args, Out: out, Tid: p.PID}
	if out.Exited {
		e.masterExited = true
		e.exitCode = out.Ret
		if e.timer != nil {
			e.timer.Cancel()
		}
		e.curRecords = append(e.curRecords, rec)
		e.finishLastSlice()
		return
	}
	if e.replayable(sysno) {
		e.curRecords = append(e.curRecords, rec)
		e.stats.SysRecords++
		return
	}
	// Unrecordable (or record budget exhausted): the pending record list
	// must still include this syscall — the previous slice replays up to
	// and including it, then terminates.
	e.curRecords = append(e.curRecords, rec)
	e.requestFork(boundarySyscall)
}

// replayable reports whether the control process records this syscall
// rather than forcing a slice boundary. Unknown system calls always force
// a boundary (the paper: "in other cases where we are unsure about the
// effects of a system call or encounter a new system call, SuperPin will
// default to forking a new timeslice"), as does an exhausted record
// budget or recording being disabled (-spsysrecs 0).
func (e *Engine) replayable(sysno uint32) bool {
	if e.opts.MaxSysRecs <= 0 || len(e.curRecords) >= e.opts.MaxSysRecs {
		return false
	}
	switch sysno {
	case kernel.SysWrite, kernel.SysRead, kernel.SysBrk, kernel.SysMmap,
		kernel.SysMunmap, kernel.SysTime, kernel.SysGetPid, kernel.SysRand,
		kernel.SysYield:
		return true
	default:
		return false
	}
}

// requestFork spawns a new timeslice at the master's current state, or —
// if the maximum number of running slices has been reached — stalls the
// master until a slice completes (the Figure 6 "sleep" component).
func (e *Engine) requestFork(kind boundaryKind) {
	if e.masterExited {
		return
	}
	if e.runningCount >= e.opts.MaxSlices {
		if !e.pendingFork {
			e.pendingFork = true
			e.pendingBoundary = kind
			e.stats.Stalls++
			e.groupSleep()
		}
		return
	}
	e.doFork(kind)
}

// doFork creates the next timeslice: a copy-on-write fork of the master
// running a fresh Pin engine and tool instance, initially asleep. The new
// slice records its start signature (in recording mode, charged to its
// own time); that signature becomes the previous slice's end trigger, and
// the previous slice wakes to begin detection-mode execution.
func (e *Engine) doFork(kind boundaryKind) {
	num := len(e.slices) + 1
	sl := &slice{num: num, boundary: boundaryOpen}
	sl.ctl = &ToolCtl{eng: e, sliceNum: num}
	sl.eng = pin.NewEngine(e.opts.PinCost)
	sl.ctl.endFlag = sl.eng.RequestStop
	sl.tool = e.factory(sl.ctl)
	threaded := e.opts.Threads
	// Detection is registered before the tool so its boundary check runs
	// first at the boundary PC: the slice stops before any tool analysis
	// fires for instructions beyond its boundary. Threaded slices need no
	// detection at all — their boundary is the end of the schedule log.
	if !threaded {
		if e.opts.Detector == DetectorIPHistory {
			sl.ipRing = kernel.NewIPRing(e.opts.IPHistoryLen)
			sl.eng.AddTraceInstrumenter(sl.ipHistoryInstrumenter(e))
		} else {
			sl.eng.AddTraceInstrumenter(sl.detectionInstrumenter(e))
		}
	}
	sl.eng.AddTraceInstrumenter(sl.tool.Instrument)
	sl.eng.Shared = e.sharedTraces
	// Barrier publication in serial runs too, so shared-cache behavior
	// is byte-identical at every worker count (see Run's QuantumHook).
	sl.eng.SharedBarrier = true
	sl.eng.SA = e.sa
	// Slices share (never duplicate) the run's warm-seed snapshot, like
	// the analysis above: both are immutable.
	sl.eng.Warm = e.warmSeed

	var runner kernel.Runner = sl.eng
	var tr *threadedRunner
	if threaded {
		tr = &threadedRunner{e: e, sl: sl, eng: sl.eng, contexts: e.captureContexts()}
		sl.eng.Syscall = sl.threadedPlaybackFilter(e, tr)
		runner = tr
	} else {
		sl.eng.Syscall = sl.playbackFilter(e)
	}

	sl.proc = e.k.Fork(e.master, fmt.Sprintf("slice%d", num), runner, false)
	if e.masterProbe != nil {
		// The slice's probe continues the master's position and shadow
		// stack from the fork point; it samples only the slice's own
		// range (its first sample index is strictly past the fork
		// position, so a sample landing exactly on the boundary belongs
		// to the previous slice).
		sl.probe = e.masterProbe.Fork()
		sl.proc.Prof = sl.probe
	}
	if e.opts.Trace != nil {
		if e.workers > 1 {
			// Parallel run: the slice's guest phase executes on a pool
			// worker, so its engine events buffer privately and the
			// kernel drains them into the main tracer at the slice's
			// position in the serial quantum walk.
			sl.buf = obs.NewTracer()
			sl.proc.ObsBuf = sl.buf
			sl.eng.AttachObs(sl.buf, int32(sl.proc.PID))
		} else {
			sl.eng.AttachObs(e.opts.Trace, int32(sl.proc.PID))
		}
	}
	if m := e.opts.Metrics; m != nil {
		sl.eng.AttachMetrics(m)
		sl.hostStart = time.Now()
		m.Set(telLiveSlicesSpawned, float64(len(e.slices)+1))
	}
	e.emit(obs.EvSliceSpawn, sl.proc.PID, uint64(num), 0, kind.String())
	cost := e.k.Config().Cost
	if kind == boundaryTimeout {
		// Timer-driven spawns go through the trampoline: redirect the
		// PC, switch to a private stack, enter the VM.
		e.k.Charge(e.master, cost.TrampolineCost)
		e.master.ForkCost += cost.TrampolineCost
	}

	var sig *Signature
	if !threaded {
		var sigCost kernel.Cycles
		sig, sigCost = recordSignature(sl.proc.Mem, sl.proc.Regs, &e.opts)
		sl.startSig = sig
		if e.masterRing != nil {
			// IP-history mode: the boundary signature is the master's
			// recent instruction-pointer trace, and the new slice's own
			// ring starts from that same history.
			sig.IPs = e.masterRing.Snapshot()
			sl.ipRing.Seed(sig.IPs)
			if n := len(sig.IPs); n > 0 {
				sl.lastPushed = sig.IPs[n-1]
			}
			sigCost += kernel.Cycles(len(sig.IPs))
		}
		e.k.Charge(sl.proc, sigCost)
		if sig.Defaulted {
			e.stats.RegPickDefaults++
		}
		if sig.Probe != nil {
			e.stats.MemProbes++
		}
	} else {
		// The schedule log is the boundary; charge only a per-thread
		// context-capture cost.
		e.k.Charge(sl.proc, kernel.Cycles(len(tr.contexts))*contextSwitchCost)
	}
	if sa, ok := sl.tool.(SliceAware); ok {
		sa.SliceBegin(num)
	}

	// Hand the accumulated records (and, depending on mode, the end
	// signature or the schedule log) to the previous slice and wake it:
	// it now knows where to stop.
	if prev := e.open; prev != nil {
		prev.records = e.curRecords
		prev.boundary = kind
		if threaded {
			prev.bursts = e.curBursts
		} else {
			prev.endSig = sig
			if kind == boundaryTimeout {
				// Make the boundary PC a trace leader in the previous
				// slice's code cache so block-granularity tools never
				// count past the boundary (see jit.BuildTraceSplit).
				prev.eng.SplitPC = sig.PC
			}
		}
		e.wakeSlice(prev)
	}
	e.curRecords = nil
	e.curBursts = nil
	e.open = sl
	e.slices = append(e.slices, sl)
	e.lastFork = e.k.Now
	e.stats.Forks++
	switch kind {
	case boundarySyscall:
		e.stats.SyscallForks++
	case boundaryTimeout:
		e.stats.TimeoutForks++
	}
	e.k.OnExit(sl.proc, func(*kernel.Proc) { e.onSliceDone(sl) })
}

// finishLastSlice closes the final (open) slice when the master exits:
// its boundary is the application's exit syscall, already appended to the
// pending records.
func (e *Engine) finishLastSlice() {
	if prev := e.open; prev != nil {
		prev.records = e.curRecords
		prev.bursts = e.curBursts
		prev.boundary = boundaryExit
		e.wakeSlice(prev)
	}
	e.curRecords = nil
	e.curBursts = nil
	e.open = nil
}

func (e *Engine) wakeSlice(sl *slice) {
	sl.running = true
	e.runningCount++
	if m := e.opts.Metrics; m != nil {
		m.Set(telLiveSlicesRunning, float64(e.runningCount))
	}
	e.k.Wake(sl.proc)
}

// onSliceDone runs when a slice's process exits: merge completed slices
// in slice order (Section 4.5) and release a stalled master if capacity
// freed up.
func (e *Engine) onSliceDone(sl *slice) {
	sl.done = true
	if sl.running {
		sl.running = false
		e.runningCount--
	}
	if m := e.opts.Metrics; m != nil {
		m.Set(telLiveSlicesRunning, float64(e.runningCount))
		if !sl.hostStart.IsZero() {
			m.Observe(telSliceWallNS, uint64(time.Since(sl.hostStart)))
		}
	}
	if sl.proc.Err != nil {
		e.errs = append(e.errs, fmt.Errorf("core: slice %d faulted: %w", sl.num, sl.proc.Err))
	}

	for e.mergedThrough < len(e.slices) && e.slices[e.mergedThrough].done {
		s := e.slices[e.mergedThrough]
		if sa, ok := s.tool.(SliceAware); ok {
			sa.SliceEnd(s.num)
		}
		if s.probe != nil {
			// Merge the slice's sample stream in slice order: because the
			// slices partition the instruction stream, the concatenation
			// is the serial profile.
			e.profSamples = append(e.profSamples, s.probe.Samples()...)
			if d := s.probe.MaxDepth(); d > e.profDepth {
				e.profDepth = d
			}
		}
		s.ctl.autoMerge()
		e.mergedThrough++
		e.endTime = e.k.Now
		e.emit(obs.EvSliceMerge, s.proc.PID, uint64(s.num), 0, "")
	}
	if m := e.opts.Metrics; m != nil {
		m.Set(telLiveSlicesMerged, float64(e.mergedThrough))
	}

	if e.pendingFork && e.runningCount < e.opts.MaxSlices && !e.masterExited {
		e.pendingFork = false
		e.doFork(e.pendingBoundary)
		e.groupWake()
	}
}
