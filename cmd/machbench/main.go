// Command machbench regenerates and validates BENCH_machsim.json, the
// committed benchmark regression report (schema in internal/bench).
//
//	machbench -out BENCH_machsim.json            # regenerate at full scale
//	machbench -videos 4 -frames 16 -out /tmp/b.json
//	machbench -check -check-file BENCH_machsim.json -max-stepframe-allocs 0
//
// In -check mode no benchmarks run: the file is validated against the
// schema (unknown keys are errors), and every engine/stepframe/* row must
// stay at or under -max-stepframe-allocs allocs per frame. Exit codes: 0
// success, 1 harness error or failed check, 2 invalid usage.
package main

import (
	"flag"
	"fmt"
	"os"

	"mach/internal/bench"
	"mach/internal/core"
	"mach/internal/video"
)

func main() {
	var (
		out        = flag.String("out", "BENCH_machsim.json", "report file to write")
		merge      = flag.Bool("merge", false, "merge into an existing -out file instead of replacing it")
		frames     = flag.Int("frames", 48, "frames per workload")
		width      = flag.Int("width", 320, "frame width")
		height     = flag.Int("height", 180, "frame height")
		videosN    = flag.Int("videos", 0, "limit to the first N workloads (0 = all 16)")
		iterations = flag.Int("iterations", 2, "timed iterations per cell (fastest wins)")
		check      = flag.Bool("check", false, "validate a report instead of running benchmarks")
		checkFile  = flag.String("check-file", "BENCH_machsim.json", "report to validate in -check mode")
		maxAllocs  = flag.Float64("max-stepframe-allocs", 0, "maximum allocs_per_op any engine/stepframe/* row may report in -check mode")
	)
	flag.Parse()

	if *check {
		rep, err := bench.ReadFile(*checkFile)
		if err != nil {
			fatal(err)
		}
		if err := rep.CheckAllocs("engine/stepframe/", *maxAllocs); err != nil {
			fatal(err)
		}
		fmt.Printf("machbench: %s: %d records ok; engine/stepframe/* <= %g allocs/op\n",
			*checkFile, len(rep.Records), *maxAllocs)
		return
	}

	if *frames < 1 || *iterations < 1 {
		usage("-frames/-iterations must be positive")
	}
	keys := core.WorkloadKeys()
	if *videosN < 0 || *videosN > len(keys) {
		usage("-videos %d: want [0,%d]", *videosN, len(keys))
	}
	if *videosN > 0 {
		keys = keys[:*videosN]
	}
	sc := video.DefaultStreamConfig()
	sc.NumFrames = *frames
	sc.Width, sc.Height = *width, *height
	if sc.MabSize > 0 && (*width%sc.MabSize != 0 || *height%sc.MabSize != 0) {
		usage("-width/-height %dx%d: want multiples of the %d-pixel mab size", *width, *height, sc.MabSize)
	}

	rep, err := bench.Run(bench.Options{
		Videos:     keys,
		Stream:     sc,
		Iterations: *iterations,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "machbench: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	if *merge {
		if prev, err := bench.ReadFile(*out); err == nil {
			for _, rec := range rep.Records {
				prev.Add(rec)
			}
			rep = prev
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}
	if err := bench.WriteFile(*out, rep); err != nil {
		fatal(err)
	}
	seq, _ := rep.Find("sweep/seq")
	fmt.Printf("machbench: wrote %s (%d records): sweep %.1fms seq\n",
		*out, len(rep.Records), float64(seq.NsPerOp)/1e6)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "machbench: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run `machbench -h` for flag documentation")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "machbench:", err)
	os.Exit(1)
}
