package main

// emit writes every per-layer metric. Host times come from the traced
// pass's spans (and, for CPU use and the build share of replay and fleet,
// from the untraced pass u); simulated counts come from the traced
// replays' core.Results, exact for a given seed.
func (lm *layerMetrics) emit(ms *metricSet, rec *recorder, u *passResult) {
	bl := &lm.build
	ms.set("video.synth_ms_per_frame", 1e3*ratio(rec.total(spanSynth), float64(bl.synthFrames)), "ms")
	ms.set("codec.encode_ms_per_frame", 1e3*ratio(rec.total(spanPush)+rec.total(spanFlush), float64(bl.encFrames)), "ms")
	ms.set("trace.decode_ms_per_frame", 1e3*ratio(rec.total(spanDecode), float64(bl.decFrames)), "ms")
	ms.set("codec.bytes_per_frame", ratio(float64(bl.encodedBytes), float64(bl.decFrames)), "B")
	ms.set("trace.build_share", lm.buildShare, "ratio")
	ms.set("trace.traces_built", float64(lm.tracesBuilt), "count")
	ms.set("host.cpu_util.setup", u.cpuSetup, "ratio")
	ms.set("host.cpu_util.run", u.cpuRun(), "ratio")

	ms.set("core.new_runner_us", 1e6*median(rec.durations(spanNew)), "us")
	ms.set("core.finish_us", 1e6*median(rec.durations(spanFinish)), "us")
	steps := 0.0
	for i, k := range schemeKeys {
		d := rec.durations(stepSpan[i])
		steps += sum(d)
		ms.set("core.step_us.p50."+k, 1e6*quantile(d, 0.50), "us")
		ms.set("core.step_us.p99."+k, 1e6*quantile(d, 0.99), "us")
	}
	ms.set("core.host_ns_per_mab", 1e9*ratio(steps, float64(lm.core.mabs)), "ns")
	ms.set("mach.prehash_share", ratio(lm.core.prehash, rec.total(stepSpan[len(schemeKeys)-1])), "ratio")

	ch := &lm.chain
	ms.set("mach.writeback_us_per_frame", 1e6*ratio(rec.total(spanWB), float64(ch.frames)), "us")
	ms.set("dram.ns_per_access", 1e9*ratio(rec.total(spanDRAM), float64(ch.lines)), "ns")
	ms.set("display.scanout_us_per_frame", 1e6*ratio(rec.total(spanDisplay), float64(ch.frames)), "us")

	// Simulated per-layer counts over the GAB runs, where every layer of
	// the recipe is active.
	var refReads, refHits, mabs, matches, lineWrites, accesses, rowHits int64
	var dcHits, dcLookups, mbHits, mbLookups, transitions, rebuf, switches int64
	var stall, s3, wall float64
	gab := len(schemeKeys) - 1
	for _, row := range lm.results {
		for j, res := range row {
			if res == nil {
				continue
			}
			rebuf += res.Rebuffers
			if res.ABR != nil {
				switches += res.ABR.Switches
			}
			if j != gab {
				continue
			}
			refReads += res.Dec.RefReads
			refHits += res.Dec.RefHits
			stall += res.Dec.StallTime.Seconds()
			mabs += res.Mach.Mabs
			matches += res.Mach.IntraMatches + res.Mach.InterMatches
			lineWrites += res.Mach.LineWrites
			accesses += res.Mem.Accesses()
			rowHits += res.Mem.RowHits
			dcHits += res.Disp.DCHits
			dcLookups += res.Disp.DCLookups
			mbHits += res.Disp.MachBufHits
			mbLookups += res.Disp.MachBufHits + res.Disp.MachBufMisses
			s3 += res.S3Time.Seconds()
			wall += res.WallTime.Seconds()
			transitions += res.Transitions
		}
	}
	ms.set("decoder.ref_hit_rate", ratio(float64(refHits), float64(refReads)), "ratio")
	ms.set("decoder.stall_ms", 1e3*stall, "ms")
	ms.set("mach.match_rate", ratio(float64(matches), float64(mabs)), "ratio")
	ms.set("mach.line_writes", float64(lineWrites), "count")
	ms.set("dram.accesses", float64(accesses), "count")
	ms.set("dram.row_hit_rate", ratio(float64(rowHits), float64(accesses)), "ratio")
	ms.set("display.dc_hit_rate", ratio(float64(dcHits), float64(dcLookups)), "ratio")
	ms.set("display.machbuf_hit_rate", ratio(float64(mbHits), float64(mbLookups)), "ratio")
	ms.set("power.s3_residency", ratio(s3, wall), "ratio")
	ms.set("power.transitions", float64(transitions), "count")
	for j, k := range schemeKeys {
		g, _ := meanNorm(lm.results, j)
		ms.set("energy.norm."+k, g, "ratio")
	}

	// Streaming and robustness counts. The fleet sets its own from the
	// session replays and the aggregate; the perfect-network replays add
	// exact zeros. Sweep and replay run no delivery, checkpoints or
	// supervisor, so theirs are zero.
	lm.rebuffers += rebuf
	lm.abrSwitches += switches
	ms.set("checkpoint.overhead_ms", lm.checkpointMs, "ms")
	ms.set("abr.switches", float64(lm.abrSwitches), "count")
	ms.set("delivery.rebuffers", float64(lm.rebuffers), "count")
	ms.set("fleet.quarantined", float64(lm.quarantined), "count")
}
