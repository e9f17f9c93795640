package main

import (
	"bytes"
	"fmt"
	"reflect"

	"mach/internal/codec"
	"mach/internal/core"
	"mach/internal/display"
	"mach/internal/dram"
	"mach/internal/framebuf"
	"mach/internal/mach"
	"mach/internal/sim"
	"mach/internal/trace"
	"mach/internal/video"
)

// Span names. Constants keep the traced hot loops free of string building.
const (
	spanBuild    = "trace.build"
	spanSynth    = "video.frame"
	spanPush     = "codec.push"
	spanFlush    = "codec.flush"
	spanDecode   = "codec.decode"
	spanRun      = "core.run"
	spanNew      = "core.new_runner"
	spanFinish   = "core.finish"
	spanOp       = "op"
	spanSetup    = "setup"
	spanWB       = "mach.writeback"
	spanDRAM     = "dram.access_range"
	spanDisplay  = "display.scanout"
	spanFig11    = "experiments.fig11"
	spanCacheGet = "experiments.trace_cache_get"
	spanFleetRun = "fleet.run"
	spanFleetDir = "fleet.run.manifests"
)

// schemeKeys are the metric-name keys of core.StandardSchemes, in order.
var schemeKeys = []string{"baseline", "batching", "racing", "race-to-sleep", "mab", "gab"}

// stepSpan holds the per-scheme StepFrame span names, indexed like
// schemeKeys.
var stepSpan = func() []string {
	out := make([]string, len(schemeKeys))
	for i, k := range schemeKeys {
		out[i] = "core.step_frame." + k
	}
	return out
}()

// layerBuild is what a layer-by-layer trace build produced besides the
// trace: how many frames each layer handled and the encoded bytes.
type layerBuild struct {
	synthFrames, encFrames, decFrames int
	encodedBytes                      int64
}

// buildLayers builds a trace the way core.BuildTrace does, one public layer
// call at a time — video.Generator.Frame, codec.Encoder.Push/Flush,
// codec.Decoder.Decode — with a span around each call.
func buildLayers(rec *recorder, parent int, key string, sc video.StreamConfig, lb *layerBuild) (*trace.Trace, error) {
	sp := rec.begin(spanBuild, parent)
	defer rec.end(sp)
	prof, err := video.ProfileByKey(key)
	if err != nil {
		return nil, err
	}
	gen, err := video.NewGenerator(prof, sc.Width, sc.Height, sc.Seed)
	if err != nil {
		return nil, err
	}
	params := codec.DefaultParams(sc.Width, sc.Height)
	if sc.MabSize != 0 {
		params.MabSize = sc.MabSize
	}
	if sc.Quant != 0 {
		params.Quant = sc.Quant
	}
	params.GOPLength = prof.GOPLength
	params.BFrames = prof.BFrames
	enc, err := codec.NewEncoder(params)
	if err != nil {
		return nil, err
	}
	var encoded []*codec.EncodedFrame
	for i := 0; i < sc.NumFrames; i++ {
		s := rec.begin(spanSynth, sp)
		fr := gen.Frame()
		rec.end(s)
		s = rec.begin(spanPush, sp)
		efs, err := enc.Push(fr)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		encoded = append(encoded, efs...)
	}
	s := rec.begin(spanFlush, sp)
	efs, err := enc.Flush()
	rec.end(s)
	if err != nil {
		return nil, err
	}
	encoded = append(encoded, efs...)
	lb.synthFrames += sc.NumFrames
	lb.encFrames += sc.NumFrames

	dec, err := codec.NewDecoder(params)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Profile: prof.Key, FPS: prof.FPS, Params: params, Frames: make([]trace.Frame, 0, len(encoded))}
	for _, ef := range encoded {
		s := rec.begin(spanDecode, sp)
		fr, work, err := dec.Decode(ef)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("decoding %s frame %d: %w", key, ef.DisplayIndex, err)
		}
		lb.encodedBytes += int64(ef.SizeBytes())
		tr.Frames = append(tr.Frames, trace.Frame{
			Type:         ef.Type,
			DisplayIndex: ef.DisplayIndex,
			EncodedBytes: ef.SizeBytes(),
			Decoded:      fr,
			Work:         work,
		})
	}
	lb.decFrames += len(encoded)
	return tr, nil
}

// sameTrace reports how a differs from b: frame types, display order,
// encoded sizes, decode work records and decoded pixels must all match.
func sameTrace(a, b *trace.Trace) error {
	if a.Profile != b.Profile || a.FPS != b.FPS || a.Params != b.Params || len(a.Frames) != len(b.Frames) {
		return fmt.Errorf("trace %s: header or length differs (%d vs %d frames)", a.Profile, len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		fa, fb := &a.Frames[i], &b.Frames[i]
		switch {
		case fa.Type != fb.Type || fa.DisplayIndex != fb.DisplayIndex || fa.Arrival != fb.Arrival:
			return fmt.Errorf("trace %s frame %d: type/order differs", a.Profile, i)
		case fa.EncodedBytes != fb.EncodedBytes:
			return fmt.Errorf("trace %s frame %d: encoded size %d vs %d", a.Profile, i, fa.EncodedBytes, fb.EncodedBytes)
		case fa.Decoded.W != fb.Decoded.W || fa.Decoded.H != fb.Decoded.H || !bytes.Equal(fa.Decoded.Pix, fb.Decoded.Pix):
			return fmt.Errorf("trace %s frame %d: decoded pixels differ", a.Profile, i)
		case !reflect.DeepEqual(fa.Work, fb.Work):
			return fmt.Errorf("trace %s frame %d: decode work differs", a.Profile, i)
		}
	}
	return nil
}

// runScheme replays tr under s through NewRunner / StepFrame / Finish. With
// a recorder it times each call; prehash accumulates Runner.PrehashWall.
func runScheme(rec *recorder, parent int, tr *trace.Trace, schemeIdx int, s core.Scheme, cfg core.Config, prehash *float64) (*core.Result, error) {
	run := rec.begin(spanRun, parent)
	defer rec.end(run)
	sp := rec.begin(spanNew, run)
	r, err := core.NewRunner(tr, s, cfg)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	step := stepSpan[schemeIdx]
	for !r.Done() {
		sp := rec.begin(step, run)
		r.StepFrame()
		rec.end(sp)
	}
	if prehash != nil {
		*prehash += r.PrehashWall().Seconds()
	}
	sp = rec.begin(spanFinish, run)
	res, err := r.Finish()
	rec.end(sp)
	return res, err
}

// chainStats counts what the isolated writeback → DRAM → display driver did.
type chainStats struct {
	frames, lines int64
}

// isolatedChain drives tr's decoded frames through the public per-frame
// calls of the three replay layers outside core.Runner: mach.Writeback
// ProcessFrame (GAB, display-optimized layout) → dram.Memory.AccessRange
// over every line the writeback sink received → display.Controller
// Prefetch/ScanOut of the resulting layout, one span per layer per frame.
func isolatedChain(rec *recorder, parent int, tr *trace.Trace, cfg core.Config, cs *chainStats) error {
	mcfg := cfg.Mach
	mcfg.MabSize = tr.Params.MabSize
	mcfg.LineBytes = int(cfg.DRAM.LineBytes)
	mcfg.Gradient = true
	mcfg.Layout = framebuf.LayoutPtrDigest
	wb, err := mach.NewWriteback(mcfg)
	if err != nil {
		return err
	}
	mem := dram.New(cfg.DRAM)
	dcfg := cfg.Display
	dcfg.FPS = tr.FPS
	dcfg.LineBytes = int(cfg.DRAM.LineBytes)
	dcfg.UseDisplayCache = true
	dcfg.UseMachBuffer = true
	dc := display.New(dcfg, mem)

	// Buffer slots rotate over the MACH retention window plus headroom so
	// inter-match pointers always target a live slot.
	slots := mcfg.NumMACHs + 4
	slotBytes := uint64(tr.DecodedBytesPerFrame())*2 + 1<<16
	dumpSlot := uint64((mcfg.NumMACHs+1)*mcfg.EntriesPerMACH*8) + 1<<12
	period := sim.Time(int64(sim.Second) / int64(max(tr.FPS, 1)))

	type write struct {
		addr uint64
		size int
	}
	writes := make([]write, 0, tr.Params.MabsPerFrame()*2)
	sink := func(addr uint64, size int, _ int) { writes = append(writes, write{addr, size}) }
	var retired []*framebuf.FrameLayout
	now := sim.Time(0)
	for i := range tr.Frames {
		f := &tr.Frames[i]
		slot := uint64(i % slots)
		writes = writes[:0]
		sp := rec.begin(spanWB, parent)
		layout := wb.ProcessFrame(f.Decoded, f.DisplayIndex,
			framebuf.RegionFrameBuffers+slot*slotBytes,
			framebuf.RegionMachDumps+slot*dumpSlot, sink)
		rec.end(sp)

		sp = rec.begin(spanDRAM, parent)
		done := now
		for _, w := range writes {
			d, n := mem.AccessRange(now, w.addr, uint64(w.size), true)
			done = max(done, d)
			cs.lines += int64(n)
		}
		rec.end(sp)

		scan := max(done, now+period)
		sp = rec.begin(spanDisplay, parent)
		dc.Prefetch(done, layout)
		dc.ScanOut(scan, layout)
		rec.end(sp)
		now = scan + period
		cs.frames++

		retired = append(retired, layout)
		if len(retired) > slots {
			wb.Recycle(retired[0])
			retired = retired[1:]
		}
	}
	return nil
}
