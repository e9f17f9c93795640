// Command machfleet runs a fleet of lightweight viewer sessions — distinct
// workloads, seeded per-session churn and bandwidth, optional cell-local
// shared bottlenecks — under the sharded crash-safe supervisor and prints the
// population aggregate.
//
// Examples:
//
//	machfleet -sessions 256 -scheme gab -net lte
//	machfleet -sessions 64 -shards 8 -workers 4 -canonical
//	machfleet -sessions 10000 -checkpoint-dir run.d -checkpoint-every 64
//	machfleet -sessions 10000 -checkpoint-dir run.d -resume
//	machfleet -sessions 64 -inject-panic-rate 0.05 -inject-panic-seed 7
//	machfleet -sessions 64 -inject-stall-shard 2 -stall-deadline 2s
//
// Long runs are crash-safe with -checkpoint-dir: each shard writes its own
// manifest atomically every -checkpoint-every sessions and the fleet resumes
// bit-identically with -resume after a crash or SIGKILL (a missing manifest
// restarts that shard; a damaged one is logged and recomputed). The aggregate
// is invariant under -shards and -workers, so any topology resumes any other.
//
// Exit codes: 0 success (injected faults contained included), 1 model or
// runtime error, 2 invalid usage, 3 interrupted by SIGINT/SIGTERM with every
// committed chunk flushed to the shard manifests — rerun with -resume.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mach"
	"mach/internal/fleet"
)

const (
	exitErr         = 1
	exitUsage       = 2
	exitInterrupted = 3
)

func main() {
	var (
		sessions  = flag.Int("sessions", 64, "number of viewer sessions in the fleet")
		seed      = flag.Int64("seed", 1, "fleet seed: derives every per-session profile, length, churn window, and delivery seed")
		shards    = flag.Int("shards", 4, "number of independently crash-safe shards")
		workers   = flag.Int("workers", 0, "session fan-out width per shard (0 = GOMAXPROCS)")
		scheme    = flag.String("scheme", "gab", "scheme: baseline|batching|racing|race-to-sleep|mab|gab")
		batch     = flag.Int("batch", mach.DefaultBatch, "batch depth for batching schemes")
		frames    = flag.Int("frames", 120, "full-length session frame count (churn shortens individual sessions)")
		width     = flag.Int("width", 320, "frame width (multiple of the mab size)")
		height    = flag.Int("height", 180, "frame height (multiple of the mab size)")
		workloads = flag.String("workloads", "", "comma-separated workload keys to draw sessions from (empty = all V1..V16)")
		cell      = flag.Int("cell", 8, "sessions per contention cell: overlapping sessions of a cell share a bottleneck (requires -net; 0/1 = no contention)")
		horizon   = flag.Int("horizon", 16, "join/leave churn horizon in quarter-length quanta")

		ckptDir   = flag.String("checkpoint-dir", "", "shard manifest directory: each shard checkpoints there every -checkpoint-every sessions, removed on success")
		ckptEvery = flag.Int("checkpoint-every", 16, "sessions between shard manifest writes (with -checkpoint-dir)")
		resume    = flag.Bool("resume", false, "resume from surviving manifests in -checkpoint-dir; missing = fresh shard, damaged = recomputed")
		canonical = flag.Bool("canonical", false, "print the canonical JSON aggregate instead of the report (stable across topologies; used to prove resume equivalence)")

		net       = flag.String("net", "", "network profile enabling the delivery fault model: lte|wifi|3g|flaky (empty = perfect network)")
		bandwidth = flag.Float64("bandwidth", 0, "override link bandwidth in Mbit/s (requires -net)")
		abrPolicy = flag.String("abr", "", "adaptive-bitrate policy: fixed|buffer|throughput (requires -net)")

		stallDeadline = flag.Duration("stall-deadline", 0, "watchdog no-progress deadline per shard (0 = watchdog off)")
		maxRestarts   = flag.Int("max-restarts", 3, "watchdog restarts per shard before the run fails")

		panicRate  = flag.Float64("inject-panic-rate", 0, "fault injection: probability a session panics at start (quarantined, not fatal)")
		panicSeed  = flag.Int64("inject-panic-seed", 0, "fault injection: seed for the panic draw")
		stallShard = flag.Int("inject-stall-shard", -1, "fault injection: stall this shard's first attempt until the watchdog restarts it (-1 = off)")

		verbose = flag.Bool("v", false, "print per-quarantine detail and progress lines")
	)
	flag.Parse()

	cfg := fleet.Default()
	if *sessions < 1 || *sessions > 1<<24 {
		usage("-sessions %d: want a fleet size in [1,%d]", *sessions, 1<<24)
	}
	if *shards < 1 || *shards > 4096 {
		usage("-shards %d: want a shard count in [1,4096]", *shards)
	}
	if *workers < 0 || *workers > 256 {
		usage("-workers %d: want a worker count in [0,256]", *workers)
	}
	if *ckptEvery < 1 {
		usage("-checkpoint-every %d: want a positive session interval", *ckptEvery)
	}
	if *resume && *ckptDir == "" {
		usage("-resume needs -checkpoint-dir to name the manifest directory")
	}
	if *frames <= 0 {
		usage("-frames %d: want a positive frame count", *frames)
	}
	if *batch < 1 || *batch > 64 {
		usage("-batch %d: want a batch depth in [1,64]", *batch)
	}
	if *cell < 0 || *cell > 4096 {
		usage("-cell %d: want a cell size in [0,4096]", *cell)
	}
	if *horizon < 1 || *horizon > 1<<20 {
		usage("-horizon %d: want a churn horizon in [1,%d]", *horizon, 1<<20)
	}
	if *stallDeadline < 0 {
		usage("-stall-deadline %v: want a non-negative duration", *stallDeadline)
	}
	if *maxRestarts < 0 || *maxRestarts > 64 {
		usage("-max-restarts %d: want a restart budget in [0,64]", *maxRestarts)
	}
	if *panicRate < 0 || *panicRate > 1 {
		usage("-inject-panic-rate %g: want a probability in [0,1]", *panicRate)
	}
	if *stallShard >= *shards {
		usage("-inject-stall-shard %d: fleet has shards 0..%d", *stallShard, *shards-1)
	}
	if *stallShard >= 0 && *stallDeadline == 0 {
		usage("-inject-stall-shard needs -stall-deadline to arm the watchdog that clears the stall")
	}

	sc := cfg.Stream
	sc.Width, sc.Height, sc.NumFrames, sc.Seed = *width, *height, *frames, *seed
	if sc.MabSize > 0 && (*width <= 0 || *height <= 0 || *width%sc.MabSize != 0 || *height%sc.MabSize != 0) {
		usage("-width/-height %dx%d: want positive multiples of the %d-pixel mab size", *width, *height, sc.MabSize)
	}

	s, err := mach.SchemeByName(*scheme, *batch)
	if err != nil {
		usage("-scheme %s: %v", *scheme, err)
	}

	var profiles []string
	if *workloads != "" {
		for _, key := range strings.Split(*workloads, ",") {
			key = strings.TrimSpace(key)
			if _, err := mach.ProfileByKey(key); err != nil {
				usage("-workloads %s: unknown key %q (run `vgen -list` for the V1..V16 table)", *workloads, key)
			}
			profiles = append(profiles, key)
		}
	}

	platform := mach.DefaultConfig()
	if *net != "" {
		d, err := mach.DeliveryByName(*net)
		if err != nil {
			usage("-net %s: %v", *net, err)
		}
		if *bandwidth != 0 {
			if *bandwidth < 0 {
				usage("-bandwidth %g: want Mbit/s > 0", *bandwidth)
			}
			d.BandwidthBps = *bandwidth * 1e6 / 8
		}
		platform.Delivery = d
		if *abrPolicy != "" {
			if _, err := mach.ABRPolicies(*abrPolicy); err != nil {
				usage("-abr %s: %v", *abrPolicy, err)
			}
			platform.ABR = mach.ABRConfig{Enabled: true, Policy: *abrPolicy, FixedRung: -1}
		}
	} else if *bandwidth != 0 || *abrPolicy != "" {
		usage("-bandwidth/-abr need -net to select a profile")
	}

	cfg.Sessions = *sessions
	cfg.Seed = *seed
	cfg.Shards = *shards
	cfg.Workers = *workers
	cfg.CheckpointEvery = *ckptEvery
	cfg.Scheme = s
	cfg.Stream = sc
	cfg.Platform = platform
	cfg.Profiles = profiles
	cfg.CellSize = *cell
	cfg.Horizon = *horizon

	fmt.Fprintf(os.Stderr, "machfleet: planning %d sessions over %d shards (seed %d)...\n",
		*sessions, *shards, *seed)
	buildStart := time.Now()
	sup, err := fleet.NewSupervisor(cfg)
	buildWall := time.Since(buildStart)
	if err != nil {
		if errors.Is(err, fleet.ErrConfig) {
			usage("%v", err)
		}
		fatal(err)
	}

	opts := fleet.RunOptions{
		Dir:    *ckptDir,
		Resume: *resume,
		Watchdog: fleet.WatchdogConfig{
			StallDeadline: *stallDeadline,
			MaxRestarts:   *maxRestarts,
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	start := time.Now()
	opts.Clock = func() time.Duration { return time.Since(start) }
	opts.Sleep = time.Sleep
	if *panicRate > 0 || *stallShard >= 0 {
		opts.Hooks = fleet.Injector{PanicRate: *panicRate, PanicSeed: *panicSeed, StallShard: *stallShard}.Hooks()
	}

	// With checkpointing on, SIGINT/SIGTERM means "flush and hand back": the
	// in-flight chunks abort, every committed chunk is already in the shard
	// manifests, and the exit code tells the harness to rerun with -resume.
	if *ckptDir != "" {
		stop := make(chan struct{})
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			close(stop)
		}()
		opts.Stop = stop
	}

	agg, err := sup.Run(opts)
	switch {
	case err == nil:
	case errors.Is(err, fleet.ErrInterrupted):
		fmt.Fprintf(os.Stderr, "machfleet: interrupted; shard manifests in %s (resume with -resume)\n", *ckptDir)
		os.Exit(exitInterrupted)
	default:
		fatal(err)
	}

	if *canonical {
		b, err := agg.CanonicalJSON()
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(agg)
	if *verbose {
		fmt.Printf("  trace build: %v\n", buildWall.Round(time.Millisecond))
		fmt.Printf("  run: %v\n", time.Since(start).Round(time.Millisecond))
	}
}

// usage reports an invalid invocation and exits with the usage code so
// scripts can distinguish operator error from model failure.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "machfleet: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run `machfleet -h` for flag documentation")
	os.Exit(exitUsage)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "machfleet:", err)
	os.Exit(exitErr)
}
