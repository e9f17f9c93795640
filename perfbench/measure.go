package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// processStart anchors setup_s. run.py passes the wall-clock time at which
// it executes the benchmark binary in PERFBENCH_START_NS, so setup_s covers
// process start-up and package initialization too; run directly, the
// benchmark falls back to the initialization of package main, which
// follows every imported package's.
var processStart = func() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_START_NS"), 10, 64); err == nil {
		return time.Unix(0, ns)
	}
	return time.Now()
}()

// epoch is the monotonic origin of span times.
var epoch = time.Now()

// span is one timed call the benchmark made into a layer: its name, the
// span that caused it (-1 for none), and start/end in nanoseconds since
// epoch.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced pass in memory. A nil recorder is
// the untraced path: every method is a no-op, so workloads call it
// unconditionally. Spans are only ever recorded from the goroutine driving
// the workload (one operation in flight), so the recorder needs no lock.
type recorder struct {
	spans []span
}

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: int64(time.Since(epoch))})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(epoch))
}

// durations returns the duration in seconds of every closed span named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// total returns the summed duration in seconds of the spans named name.
func (r *recorder) total(name string) float64 {
	return sum(r.durations(name))
}

// write saves the spans as JSON to path.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// heapPeak samples the live heap — the bytes the last GC cycle marked
// reachable — every few milliseconds and keeps the largest value seen since
// the last reset. The live heap, unlike the allocated heap, does not depend
// on where between two collections a sample lands, so it repeats run to
// run.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// takeMB returns the peak since the last call in MiB and starts a new window.
func (h *heapPeak) takeMB() float64 {
	h.sample()
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (h *heapPeak) close() {
	close(h.stop)
	h.wg.Wait()
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile returns the nearest-rank q-quantile of xs (0 for an empty set).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
