package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"mach/internal/core"
	"mach/internal/trace"
	"mach/internal/video"
)

// Options scales a harness run. Zero values select the committed-report
// scale: every workload, 48 frames at the calibrated 320x180 resolution,
// best-of-2 timing.
type Options struct {
	// Videos are the workload keys to time (default: all 16).
	Videos []string
	// Stream is the synthesis scale (default: DefaultStreamConfig with 48
	// frames).
	Stream video.StreamConfig
	// Platform is the simulated platform (default core.DefaultConfig).
	Platform core.Config
	// Iterations is how many times each cell is timed; the fastest
	// iteration is reported, the standard way to reject scheduler noise
	// (default 2).
	Iterations int
	// Scheme is the scheme each run replays (default GAB, the headline
	// configuration and the one with the most prehash work per mab).
	Scheme core.Scheme
	// Logf, when set, receives one progress line per workload.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if len(o.Videos) == 0 {
		o.Videos = core.WorkloadKeys()
	}
	if o.Stream == (video.StreamConfig{}) {
		o.Stream = video.DefaultStreamConfig()
		o.Stream.NumFrames = 48
	}
	// A valid platform has IdlePower > S1 > S3 >= 0, so a zero IdlePower
	// means the caller left Platform unset.
	if o.Platform.Power.IdlePower == 0 {
		o.Platform = core.DefaultConfig()
	}
	o.Platform.CollectFrameSamples = false
	if o.Iterations < 1 {
		o.Iterations = 2
	}
	if o.Scheme.Name == "" {
		o.Scheme = core.GAB(core.DefaultBatch)
	}
}

// Run times the engine over every workload and returns the report. Three
// row families come out of it, all measured on the host running it:
//
//   - engine/seq/<V>: wall time of one whole replay of workload <V>.
//   - engine/stepframe/<V>: steady-state per-frame cost and heap traffic
//     of Runner.StepFrame, measured after the pools and free lists have
//     warmed up. Its allocs_per_op/bytes_per_op are the fields the
//     0-allocs/op gate checks.
//   - sweep/seq: the engine/seq/* wall times summed, the 16-profile sweep
//     run back to back.
func Run(opts Options) (*Report, error) {
	opts.fill()
	rep := &Report{}
	var seqTotal, totalMabs int64
	for _, key := range opts.Videos {
		tr, err := core.BuildTrace(key, opts.Stream)
		if err != nil {
			return nil, err
		}
		mabs := int64(len(tr.Frames)) * int64(tr.Params.Width*tr.Params.Height/(tr.Params.MabSize*tr.Params.MabSize))
		totalMabs += mabs

		seqNs, prehashNs, err := timeRun(tr, opts)
		if err != nil {
			return nil, err
		}
		seqTotal += seqNs

		rep.Add(Record{
			Name:       fmt.Sprintf("engine/seq/%s", key),
			Iterations: int64(opts.Iterations),
			NsPerOp:    seqNs,
			MabsPerSec: rate(mabs, seqNs),
		})

		step, err := measureStepFrame(key, opts)
		if err != nil {
			return nil, err
		}
		rep.Add(step)

		if opts.Logf != nil {
			opts.Logf("%s: seq %.1fms (prehash %.0f%%)  step %.0f allocs/frame",
				key, float64(seqNs)/1e6, 100*float64(prehashNs)/float64(seqNs), step.AllocsPerOp)
		}
	}

	rep.Add(Record{
		Name:       "sweep/seq",
		Iterations: int64(opts.Iterations),
		NsPerOp:    seqTotal,
		MabsPerSec: rate(totalMabs, seqTotal),
	})
	return rep, nil
}

// timeRun replays the trace opts.Iterations times and returns the fastest
// wall time plus that iteration's prehash phase time, both in nanoseconds
// (minimum 1ns so records stay schema-valid even on a clock with coarse
// resolution).
func timeRun(tr *trace.Trace, opts Options) (wallNs, prehashNs int64, err error) {
	best, bestPrehash := int64(0), int64(0)
	for i := 0; i < opts.Iterations; i++ {
		r, err := core.NewRunner(tr, opts.Scheme, opts.Platform)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		for !r.Done() {
			r.StepFrame()
		}
		ns := time.Since(start).Nanoseconds()
		res, err := r.Finish()
		if err != nil {
			return 0, 0, err
		}
		if res.Frames != len(tr.Frames) {
			return 0, 0, fmt.Errorf("bench: %s: ran %d of %d frames", tr.Profile, res.Frames, len(tr.Frames))
		}
		if best == 0 || ns < best {
			best, bestPrehash = ns, r.PrehashWall().Nanoseconds()
		}
	}
	if best < 1 {
		best = 1
	}
	if bestPrehash > best {
		bestPrehash = best
	}
	return best, bestPrehash, nil
}

// measureStepFrame runs one long replay of the workload and measures the
// steady-state cost of Runner.StepFrame: the trace is stretched to twice
// the configured frame count, the first two thirds warm the frame pools
// and writeback free lists, and the remaining third is timed under
// runtime.MemStats deltas. Mallocs is monotonic, so the delta counts every
// heap allocation in the window, including the Go runtime's own: the
// window therefore runs with the collector off, because a collection's
// background workers allocate (sudogs, timers, new Ms) and would charge
// StepFrame for allocations it never made.
func measureStepFrame(key string, opts Options) (Record, error) {
	sc := opts.Stream
	sc.NumFrames *= 2
	// The pipeline recycles a frame's layout only retention+4 display
	// periods after scan-out, and the display lags the decoder by up to a
	// full batch, so the free lists reach steady state only past
	// NumMACHs+Batch+margin frames. Stretch short traces so the warm-up
	// (two thirds) covers that ramp and the measured window sits entirely
	// in the recycled regime.
	batch := opts.Scheme.Batch
	for _, b := range opts.Scheme.BatchPattern {
		if b > batch {
			batch = b
		}
	}
	if floor := 2 * (opts.Platform.Mach.NumMACHs + batch + 12); sc.NumFrames < floor {
		sc.NumFrames = floor
	}
	tr, err := core.BuildTrace(key, sc)
	if err != nil {
		return Record{}, err
	}
	r, err := core.NewRunner(tr, opts.Scheme, opts.Platform)
	if err != nil {
		return Record{}, err
	}
	warm := len(tr.Frames) * 2 / 3
	for i := 0; i < warm && !r.Done(); i++ {
		r.StepFrame()
	}
	measured := int64(0)
	var before, after runtime.MemStats
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	start := time.Now()
	for !r.Done() {
		r.StepFrame()
		measured++
	}
	ns := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	if _, err := r.Finish(); err != nil {
		return Record{}, err
	}
	if measured == 0 {
		return Record{}, fmt.Errorf("bench: %s: no frames left to measure after warm-up", key)
	}
	if ns < 1 {
		ns = 1
	}
	mabsPerFrame := int64(tr.Params.Width * tr.Params.Height / (tr.Params.MabSize * tr.Params.MabSize))
	return Record{
		Name:        fmt.Sprintf("engine/stepframe/%s", key),
		Iterations:  measured,
		NsPerOp:     ns / measured,
		MabsPerSec:  rate(measured*mabsPerFrame, ns),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(measured),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(measured),
	}, nil
}

func rate(mabs, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(mabs) / (float64(ns) / 1e9)
}
