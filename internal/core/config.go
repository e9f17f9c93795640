package core

import (
	"fmt"

	"mach/internal/abr"
	"mach/internal/decoder"
	"mach/internal/delivery"
	"mach/internal/display"
	"mach/internal/dram"
	"mach/internal/energy"
	"mach/internal/mach"
	"mach/internal/power"
	"mach/internal/soc"
)

// Config carries every substrate's configuration for a pipeline run. The
// zero value is unusable; start from DefaultConfig.
type Config struct {
	Decoder decoder.Config
	Display display.Config
	DRAM    dram.Config
	Power   power.Config
	Mach    mach.Config // template; the scheme overrides mode/layout fields
	SRAM    energy.SRAMConfig
	// Traffic is the background SoC memory load (CPU/GPU/radios). The
	// zero value disables it; experiments that study contention enable it.
	Traffic soc.TrafficConfig

	// Delivery is the network-delivery fault model (§2.1's download path).
	// Disabled (the zero value / default), every encoded frame is resident
	// before playback and the run is bit-identical to the original
	// perfect-network pipeline; enabled, frames become available per the
	// seeded delivery schedule and the pipeline degrades gracefully
	// (rebuffers, repeats, batch shrinking) when they are late.
	Delivery delivery.Config

	// ABR is the adaptive-bitrate controller riding on the delivery model:
	// a rung of the bitrate ladder is chosen per segment at download time
	// and applied to the pipeline per batch (cheaper decode, coarser MACH
	// content). Requires Delivery.Enabled; disabled (the zero value), every
	// run is bit-identical to the fixed-quality pipeline.
	ABR abr.Config

	// DisplayLatencyFrames is the fixed latency between a frame's release
	// to the decoder and its scan-out tick: 1 reproduces the paper's
	// baseline (a frame released every 16 ms must decode within one
	// period or the display repeats the previous frame). Streams with B
	// frames get one extra period for decode-order reordering.
	DisplayLatencyFrames int

	// BaseBuffers is the frame-buffer count the baseline pipeline assumes
	// (3 = triple buffering, §2.1); batching and MACH retention grow the
	// pool beyond it, which Fig 12a measures.
	BaseBuffers int

	// CollectFrameSamples records per-frame decode time and energy samples
	// for CDF plots; disable for large sweeps to save memory.
	CollectFrameSamples bool

	// Parallel is kept only for compatibility and must be 0: each run is
	// sequential, and Runner.Fingerprint hashes the JSON form of Config,
	// so deleting the field would invalidate every existing checkpoint
	// and fleet manifest.
	Parallel int
}

// DefaultConfig returns the Table 2 platform with the calibrated cost
// constants (see EXPERIMENTS.md for the calibration note).
func DefaultConfig() Config {
	return Config{
		Decoder:              decoder.DefaultConfig(),
		Display:              display.DefaultConfig(),
		DRAM:                 dram.DefaultConfig(),
		Power:                power.DefaultConfig(),
		Mach:                 mach.DefaultConfig(),
		SRAM:                 energy.DefaultSRAM(),
		Delivery:             delivery.DefaultConfig(), // LTE-class link, disabled
		DisplayLatencyFrames: 1,
		BaseBuffers:          3,
		CollectFrameSamples:  true,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if err := c.Decoder.Validate(); err != nil {
		return err
	}
	if err := c.Display.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if err := c.Mach.Validate(); err != nil {
		return err
	}
	if c.DisplayLatencyFrames < 1 || c.DisplayLatencyFrames > 16 {
		return fmt.Errorf("core: display latency %d outside [1,16]", c.DisplayLatencyFrames)
	}
	if c.BaseBuffers < 2 {
		return fmt.Errorf("core: base buffers %d < 2", c.BaseBuffers)
	}
	if err := c.Traffic.Validate(); err != nil {
		return err
	}
	if err := c.Delivery.Validate(); err != nil {
		return err
	}
	if c.ABR.Enabled && !c.Delivery.Enabled {
		return fmt.Errorf("core: ABR needs the delivery model enabled (rungs are chosen at download time)")
	}
	if err := c.ABR.Normalize().Validate(); err != nil {
		return err
	}
	if c.Parallel != 0 {
		return fmt.Errorf("core: Parallel %d: the per-run parallel engine was removed; the field must be 0", c.Parallel)
	}
	return nil
}
