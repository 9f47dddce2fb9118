package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinyWorkload shrinks a real workload to one short program so a whole
// run takes well under a second.
func tinyWorkload(t *testing.T, name, program string) workloadDef {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.Programs = []string{program}
	w.Scale = 0.01
	return w
}

func TestInjectedVirtualMismatchIsAFailure(t *testing.T) {
	r := newRunner(tinyWorkload(t, "superpin-par", "gzip"), 2, false)
	if _, err := r.setup(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.reference(); err != nil {
		t.Fatal(err)
	}
	p := r.progs[0]
	if len(p.sp.Slices) < 2 {
		t.Fatalf("reference has %d slices, want several", len(p.sp.Slices))
	}
	const op = "gzip/superpin/workers=2"
	r.attempt(op)
	failed, wrong := r.failedRuns, r.wrong

	bad := *p.sp
	bad.Slices = append(bad.Slices[:0:0], p.sp.Slices...)
	bad.Slices[1].CPUTime++
	r.checkSuperPin(op, p, &bad, p.native.Ins, 2)
	if r.failedRuns != failed+1 || r.wrong != wrong {
		t.Fatalf("virtual mismatch: failed runs %d->%d, wrong %d->%d; want one non-wrong failure",
			failed, r.failedRuns, wrong, r.wrong)
	}
	if got := r.failures[len(r.failures)-1]; !strings.Contains(got, "at Slices[1].CPUTime") {
		t.Fatalf("failure %q does not name the first differing field", got)
	}
	if got := r.failedOps(); len(got) != 1 || got[0] != op {
		t.Fatalf("failed operations %v, want [%s]", got, op)
	}

	// A later good repetition does not clear the operation's failure.
	r.attempt(op)
	r.checkSuperPin(op, p, p.sp, p.native.Ins, 2)
	if got := r.failedOps(); len(got) != 1 {
		t.Fatalf("failed operations %v after a good repetition, want [%s]", got, op)
	}

	r.checkSuperPin(op, p, p.sp, p.native.Ins+1, 2)
	if r.failedRuns != failed+2 || r.wrong != wrong+1 {
		t.Fatalf("wrong tool count not counted as a wrong output")
	}
}

func TestFirstDiff(t *testing.T) {
	type inner struct{ A, B int }
	type outer struct {
		Name string
		In   []inner
		M    map[string]int
		P    *inner
	}
	base := outer{Name: "x", In: []inner{{1, 2}, {3, 4}}, M: map[string]int{"a": 1, "b": 2}, P: &inner{5, 6}}
	clone := func() outer {
		o := base
		o.In = append([]inner(nil), base.In...)
		o.M = map[string]int{"a": 1, "b": 2}
		o.P = &inner{5, 6}
		return o
	}
	if d := firstDiff(base, clone()); d != "" {
		t.Fatalf("equal values differ at %q", d)
	}
	cases := []struct {
		mut  func(*outer)
		want string
	}{
		{func(o *outer) { o.In[1].B = 9 }, "In[1].B"},
		{func(o *outer) { o.In = o.In[:1] }, "In[1]"},
		{func(o *outer) { o.M["b"] = 3 }, "M[b]"},
		{func(o *outer) { o.P.A = 0 }, "P.A"},
		{func(o *outer) { o.P = nil }, "P"},
	}
	for _, c := range cases {
		o := clone()
		c.mut(&o)
		if d := firstDiff(base, o); d != c.want {
			t.Errorf("got %q, want %q", d, c.want)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile is the part of BENCHMARK.json the benchmark's code must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name)
	}
	var fileNames []string
	for _, w := range bf.Workloads {
		fileNames = append(fileNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(fileNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", fileNames, names)
	}

	seen := map[string]bool{}
	for _, set := range []struct {
		code, file []metricDef
	}{{endToEnd, bf.EndToEnd}, {perLayer, bf.PerLayer}} {
		if len(set.code) != len(set.file) {
			t.Errorf("BENCHMARK.json lists %d metrics, code %d", len(set.file), len(set.code))
			continue
		}
		for i, d := range set.code {
			f := set.file[i]
			if !metricName.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or repeated", d.Name)
			}
			seen[d.Name] = true
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("BENCHMARK.json has %s/%s/%s, code %s/%s/%s",
					f.Name, f.Unit, f.Better, d.Name, d.Unit, d.Better)
			}
		}
	}
	for _, d := range perLayer {
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("per-layer metric %s names no layer or end-to-end metric", d.Name)
		}
	}
}

// TestDigestRepeats runs the same input twice: every pass must repeat the
// first pass's virtual results (no failures), both runs must print the
// same digest, and another seed must change it.
func TestDigestRepeats(t *testing.T) {
	w := tinyWorkload(t, "pin-steady", "crafty")
	digest := func(seed int64) string {
		m, err := measure(w, seed, 0.01, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if m.result.Failed != 0 || !m.result.Correct || m.info.Passes < 2 {
			t.Fatalf("seed %d: %+v, %+v", seed, m.info, m.result)
		}
		return m.info.Digest
	}
	a, b := digest(3), digest(3)
	if a != b {
		t.Fatalf("digest %s then %s for the same seed", a, b)
	}
	if c := digest(4); c == a {
		t.Fatalf("seeds 3 and 4 share digest %s", a)
	}
}

// TestReportsEveryMetric checks both kinds of run print exactly the
// metrics BENCHMARK.json declares, each with its unit.
func TestReportsEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		m, err := measure(tinyWorkload(t, "suite-cold", "gzip"), 0, 0.01, trace, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if len(m.result.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(m.result.Metrics), len(defs))
		}
		for _, d := range defs {
			if got, ok := m.result.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or unit %q", trace, d.Name, got.Unit)
			}
		}
		if trace {
			for _, n := range []string{"sa.analyze_s", "bench.run_s", "jit.compiles", "core.forks"} {
				if m.result.Metrics[n].Value <= 0 {
					t.Errorf("traced suite-cold reports %s = %v", n, m.result.Metrics[n].Value)
				}
			}
		}
	}
}

func TestSeedNamesPrograms(t *testing.T) {
	specs, err := seededSpecs([]string{"gzip"}, 0)
	if err != nil || specs[0].Name != "gzip" {
		t.Fatalf("seed 0 must keep the catalog program: %v %v", specs, err)
	}
	specs, err = seededSpecs(nil, 7)
	if err != nil || len(specs) != 26 || specs[0].Name != "ammp.s7" {
		t.Fatalf("seed 7 over the catalog: %d specs, first %q, %v", len(specs), specs[0].Name, err)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "pin-steady", "-trace", "2"},
		{"-workload", "pin-steady", "-seconds", "0"},
		{"-bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
