package experiments

import (
	"sync"
	"testing"

	"mach/internal/core"
	"mach/internal/trace"
	"mach/internal/video"
)

// TestTraceCacheConcurrent hammers the TraceCache — the one shared mutable
// structure in the experiment layer — from many goroutines so that
// `go test -race` (the CI smoke path) exercises its locking: concurrent
// Get on the same key, Get on distinct keys, and Drop racing both.
func TestTraceCacheConcurrent(t *testing.T) {
	tc := NewTraceCache()
	sc := video.StreamConfig{Width: 80, Height: 48, NumFrames: 4, Seed: 3, MabSize: 4, Quant: 8}
	keys := core.WorkloadKeys()[:3]

	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				key := keys[(worker+i)%len(keys)]
				tr, err := tc.Get(key, sc)
				if err != nil {
					t.Errorf("Get(%s): %v", key, err)
					return
				}
				if got := len(tr.Frames); got != sc.NumFrames {
					t.Errorf("Get(%s): %d frames, want %d", key, got, sc.NumFrames)
					return
				}
				if i%3 == 2 {
					tc.Drop(key, sc)
				}
			}
		}(worker)
	}
	wg.Wait()
}

// TestTraceCacheSingleFlight releases many goroutines at once onto one cold
// key: they must all wait for a single build and receive the same trace.
// Two builds would hand out two distinct pointers.
func TestTraceCacheSingleFlight(t *testing.T) {
	tc := NewTraceCache()
	sc := video.StreamConfig{Width: 80, Height: 48, NumFrames: 4, Seed: 3, MabSize: 4, Quant: 8}
	const n = 8
	got := make([]*trace.Trace, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = tc.Get("V2", sc)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got trace %p, caller 0 got %p: the key was built more than once", i, got[i], got[0])
		}
	}
}

// TestTraceCacheFailedBuildNotKept: every caller waiting on a failed build
// receives its error, and the failure is not cached.
func TestTraceCacheFailedBuildNotKept(t *testing.T) {
	tc := NewTraceCache()
	sc := video.StreamConfig{Width: 32, Height: 32, NumFrames: 2, Seed: 1, MabSize: 4, Quant: 8}
	const n = 4
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var tr *trace.Trace
			tr, errs[i] = tc.Get("V99", sc)
			if tr != nil {
				t.Errorf("caller %d: trace for an unknown workload", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d: no error for an unknown workload", i)
		}
	}
	tc.mu.Lock()
	left := len(tc.traces)
	tc.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d entries cached after a failed build", left)
	}
}

// TestSchemesConcurrent runs independent pipeline simulations in parallel
// over a shared, read-only trace: core.Run promises the trace is never
// mutated, and the race detector holds it to that.
func TestSchemesConcurrent(t *testing.T) {
	cfg := Quick()
	tc := NewTraceCache()
	tr, err := tc.Get(cfg.Videos[0], cfg.Stream)
	if err != nil {
		t.Fatal(err)
	}

	schemes := []core.Scheme{core.Baseline(), core.RaceToSleep(4), core.GAB(4)}
	var wg sync.WaitGroup
	for _, s := range schemes {
		wg.Add(1)
		go func(s core.Scheme) {
			defer wg.Done()
			res, err := core.Run(tr, s, cfg.Platform)
			if err != nil {
				t.Errorf("%s: %v", s.Name, err)
				return
			}
			if res.TotalEnergy() <= 0 {
				t.Errorf("%s: non-positive total energy", s.Name)
			}
		}(s)
	}
	wg.Wait()
}
