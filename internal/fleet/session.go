package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"mach/internal/core"
	"mach/internal/sim"
	"mach/internal/trace"
)

// ErrAborted is returned by a session cut short by the abort flag (watchdog
// restart or graceful stop). An aborted chunk is discarded whole and re-run,
// never partially committed.
var ErrAborted = errors.New("fleet: session aborted")

// SessionMetrics is the per-session projection the aggregate folds: flat,
// JSON-stable (integer times in nanoseconds, shortest-round-trip floats),
// and a pure function of the session's plan.
type SessionMetrics struct {
	Session       int     `json:"session"`
	Profile       string  `json:"profile"`
	Frames        int     `json:"frames"`
	EnergyJ       float64 `json:"energy_j"`
	RadioJ        float64 `json:"radio_j"`
	Drops         int64   `json:"drops"`
	Rebuffers     int64   `json:"rebuffers"`
	RebufferNs    int64   `json:"rebuffer_ns"`
	StartupNs     int64   `json:"startup_ns"`
	WallNs        int64   `json:"wall_ns"`
	DramBytes     int64   `json:"dram_bytes"`
	MachMatchRate float64 `json:"mach_match_rate"`
}

// Hooks intercept session execution; the zero value is a no-op. Production
// runs leave them empty — they exist for fault injection (Injector) and
// tests.
type Hooks struct {
	// SessionStart runs before a session is built. Returning ErrAborted
	// discards the chunk; any other error (or a panic) quarantines the
	// session.
	SessionStart func(session, shard, attempt int, abort func() bool) error
}

// Injector builds the seeded fault-injection hooks the robustness smokes
// drive: deterministic per-session panics and a first-attempt shard stall.
type Injector struct {
	// PanicRate is the probability a session's start hook panics; the draw
	// is a pure hash of (PanicSeed, session), so the quarantined set is
	// identical under any shard/worker topology.
	PanicRate float64
	// PanicSeed seeds the panic draw.
	PanicSeed int64
	// StallShard, when >= 0, makes every session of that shard's first
	// attempt spin until aborted — the watchdog must notice and restart.
	StallShard int
}

// Hooks returns the injection hooks. A zero Injector (StallShard 0 counts as
// a real shard, so use -1 to disable) still injects nothing when PanicRate
// is 0 and StallShard is negative.
func (inj Injector) Hooks() Hooks {
	return Hooks{
		SessionStart: func(session, shard, attempt int, abort func() bool) error {
			if inj.StallShard >= 0 && shard == inj.StallShard && attempt == 0 {
				for !abort() {
					runtime.Gosched()
				}
				return ErrAborted
			}
			if inj.PanicRate > 0 {
				threshold := uint64(inj.PanicRate * float64(math.MaxUint64))
				h := splitmix64(splitmix64(uint64(inj.PanicSeed)) ^ uint64(session)*0x9e3779b97f4a7c15)
				if h < threshold {
					panic(fmt.Sprintf("fleet: injected panic in session %d", session))
				}
			}
			return nil
		},
	}
}

// sessionConfig derives one session's platform config from the fleet
// template: per-session delivery seed and bandwidth scale, the cell's shared
// bottleneck when churn windows overlap, and no frame samples (the
// aggregate keeps summaries, not 10k sample vectors).
func (c Config) sessionConfig(p Plan) core.Config {
	cfg := c.Platform
	cfg.CollectFrameSamples = false
	if cfg.Delivery.Enabled {
		cfg.Delivery.Seed = p.Seed
		cfg.Delivery.BandwidthBps *= p.BandwidthScale
		if p.Contenders > 1 {
			cfg.Delivery.Bottleneck.Sessions = p.Contenders
			cfg.Delivery.Bottleneck.Seed = c.cellSeed(p.Cell)
		}
	}
	return cfg
}

// runSession drives one viewer session to completion, checking the abort
// flag at every frame boundary so a watchdog restart or graceful stop never
// waits on a long tail.
func runSession(tr *trace.Trace, s core.Scheme, cfg core.Config, abort func() bool) (SessionMetrics, error) {
	r, err := core.NewRunner(tr, s, cfg)
	if err != nil {
		return SessionMetrics{}, err
	}
	for !r.Done() {
		if abort() {
			return SessionMetrics{}, ErrAborted
		}
		r.StepFrame()
	}
	res, err := r.Finish()
	if err != nil {
		return SessionMetrics{}, err
	}
	return SessionMetrics{
		Profile:       res.Workload,
		Frames:        res.Frames,
		EnergyJ:       res.TotalEnergy(),
		RadioJ:        float64(res.Radio.TotalEnergy()),
		Drops:         res.Drops,
		Rebuffers:     res.Rebuffers,
		RebufferNs:    int64(res.RebufferTime / sim.Nanosecond),
		StartupNs:     int64(res.StartupDelay / sim.Nanosecond),
		WallNs:        int64(res.WallTime / sim.Nanosecond),
		DramBytes:     res.Mem.Accesses() * int64(cfg.DRAM.LineBytes),
		MachMatchRate: res.Mach.MatchRate(),
	}, nil
}
