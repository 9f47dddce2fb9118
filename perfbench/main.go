// Command perfbench is the repository's benchmark. It measures host time
// per guest instruction under native, serial Pin and SuperPin execution
// on three workloads (see workloads.go and README.md), checks every
// operation's output against a serial reference, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With -trace 0 the result holds the end-to-end metrics, measured with
// tracing off; with -trace 1 it holds the per-layer metrics of traced
// passes, interleaved with untraced ones so the tracing overhead is
// measured in the same process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A run generates its programs at least setupReps times and for at
// least setupSeconds; setup_s is the median repetition. One repetition
// takes well under a millisecond on the smaller workloads, so it takes
// hundreds of them for the median to repeat from run to run.
const (
	setupReps    = 41
	setupSeconds = 0.5
)

// minPasses is the fewest timed passes of each kind a run makes, however
// short -seconds is.
const minPasses = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pin-steady, superpin-par or suite-cold")
	seed := fs.Int64("seed", 0, "input seed (0 runs the catalog programs unchanged)")
	seconds := fs.Float64("seconds", 10, "host seconds of timed passes")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced passes")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload pin-steady|superpin-par|suite-cold, -seconds > 0, -trace 0|1\n")
		return 2
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	for _, f := range res.info.Failures {
		fmt.Fprintf(stderr, "perfbench: %s: failed: %s\n", w.Name, f)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(res.info); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res.result); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// info is the line printed before the result: what ran, where, and the
// digest of the virtual results.
type info struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	NProc        int       `json:"nproc"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	GoVersion    string    `json:"go_version"`
	Trace        bool      `json:"trace"`
	Passes       int       `json:"passes"`
	TracedPasses int       `json:"traced_passes"`
	PassWallS    []float64 `json:"pass_wall_s"`
	Runs         int       `json:"runs"`
	FailedRuns   int       `json:"failed_runs"`
	FailedFrac   float64   `json:"failed_frac"`
	Digest       string    `json:"digest"`
	FailedOps    []string  `json:"failed_ops,omitempty"`
	Failures     []string  `json:"failures,omitempty"`
	Spans        string    `json:"spans,omitempty"`
}

// result is the last line printed: the contract of BENCHMARK.json.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type measurement struct {
	info   info
	result result
}

// measure performs one run: set-up, the serial reference phase, then
// timed passes for the given host seconds, each untraced pass followed by
// a side pass when tracing is off.
func measure(w workloadDef, seed int64, seconds float64, trace bool, out string) (*measurement, error) {
	r := newRunner(w, runtime.NumCPU(), trace)
	setup, err := r.setup(seed, setupReps, setupSeconds)
	if err != nil {
		return nil, err
	}
	if err := r.reference(); err != nil {
		return nil, err
	}
	var plain, side, traced []sample
	start := time.Now()
	for i := 0; len(plain) < minPasses || (trace && len(traced) < minPasses) ||
		time.Since(start).Seconds() < seconds; i++ {
		switch {
		case trace && i%2 == 1:
			traced = append(traced, r.timedPass(w.Pass, true))
		case trace:
			plain = append(plain, r.timedPass(w.Pass, false))
		default:
			plain = append(plain, r.timedPass(w.Pass, false))
			side = append(side, r.timedPass(w.Side, false))
		}
	}
	for _, s := range append(append(plain, side...), traced...) {
		derive(s)
	}

	digest, err := r.digest()
	if err != nil {
		return nil, err
	}
	failedOps := r.failedOps()
	m := &measurement{
		info: info{
			Workload: w.Name, Seed: seed, NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Trace: trace, Passes: len(plain), TracedPasses: len(traced),
			Runs: r.runs, FailedRuns: r.failedRuns,
			FailedFrac: float64(r.failedRuns) / float64(r.runs),
			Digest:     digest, FailedOps: failedOps, Failures: r.failures,
		},
		result: result{
			Correct:   r.wrong == 0,
			Attempted: len(r.ops),
			Failed:    len(failedOps),
			Metrics:   map[string]metric{},
		},
	}
	for _, s := range plain {
		m.info.PassWallS = append(m.info.PassWallS, s["wall_s"])
	}
	untraced, sides := medians(plain), medians(side)
	if !trace {
		spPct, speedup := r.simMetrics()
		for _, d := range endToEnd {
			var v float64
			switch d.Name {
			case "setup_s":
				v = median(setup)
			case "sim_sp_pct":
				v = spPct
			case "sim_speedup":
				v = speedup
			default:
				// From the passes where they make the call,
				// otherwise from the side passes.
				var ok bool
				if v, ok = untraced[d.Name]; !ok {
					v = sides[d.Name]
				}
			}
			m.result.Metrics[d.Name] = metric{v, d.Unit}
		}
		return m, nil
	}

	layer := medians(traced)
	layer["workload.build_s"] = median(setup)
	layer["trace.wall_s"] = layer["wall_s"]
	layer["trace.overhead_s"] = layer["wall_s"] - untraced["wall_s"]
	for _, d := range perLayer {
		m.result.Metrics[d.Name] = metric{layer[d.Name], d.Unit}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	m.info.Spans = filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
	if err := r.spans.write(m.info.Spans); err != nil {
		return nil, err
	}
	return m, nil
}
