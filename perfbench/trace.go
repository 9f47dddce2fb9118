package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// span is one call the benchmark made into a layer's public function,
// or one pass (the parent of its calls). Times are nanoseconds since the
// run started. Every span of one pass carries that pass's id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a pass
	Pass   int    `json:"pass"`
	Name   string `json:"name"` // public function, or "pass"/"setup"/"reference"
	Arg    string `json:"arg,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog holds a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced passes pay one nil check per call.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span and returns its id; close it with end.
func (l *spanLog) open(pass, parent int, name, arg string) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Pass: pass,
		Name: name, Arg: arg, Start: time.Since(l.t0).Nanoseconds(),
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = time.Since(l.t0).Nanoseconds()
}

// write stores the spans as a JSON array.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapSampler records the peak Go heap (live plus unswept objects) while
// a pass runs, reading runtime/metrics every few milliseconds.
type heapSampler struct {
	stop, done chan struct{}
	sample     []metrics.Sample
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	h.read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				h.read()
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// finish stops the sampler, waits for it to exit and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// gcStats is a point-in-time read of the Go runtime's allocation and
// collection totals.
type gcStats struct {
	allocBytes, cycles, pauseNS uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{allocBytes: ms.TotalAlloc, cycles: uint64(ms.NumGC), pauseNS: ms.PauseTotalNs}
}
