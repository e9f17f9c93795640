package main

import (
	"crypto/md5"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"mach/internal/abr"
	"mach/internal/core"
	"mach/internal/delivery"
	"mach/internal/experiments"
	"mach/internal/fleet"
	"mach/internal/trace"
	"mach/internal/video"
)

// Workload scale. Each is sized so a 20-second run of any workload, traced
// or not, ends within a minute on a 2-core host, set-up included.
const (
	sweepFrames   = 6  // frames per Table 1 profile in one Fig11 call
	replayFrames  = 16 // frames per replay trace
	fleetFrames   = 8  // full-length fleet session (churn plays 1/2, 3/4 or all)
	fleetSessions = 64
	paperGAB      = 0.790 // Fig 11 average normalized GAB energy in the paper
)

// replayKeys span the match-rate range: V5 lowest, V13 highest, then V1, V9.
var replayKeys = []string{"V5", "V13", "V1", "V9"}

// opResult is one timed operation's outcome.
type opResult struct {
	frames    int64  // simulated frames replayed
	digest    string // md5 of the operation's canonical output
	attempted int    // Fig11 calls, runs or sessions the operation carried
	failed    int
}

// workload is one benchmark workload. setup prepares what the timed phase
// needs and may be repeated; op is one closed-loop timed operation; gabErr
// is |mean normalized GAB energy − 0.790| for the last completed pass;
// layers runs the traced-only layer section and fills per-layer metrics.
type workload interface {
	setup(rec *recorder, parent int) error
	op(rec *recorder, parent int) (opResult, error)
	gabErr(rec *recorder) (float64, error)
	layers(rec *recorder, lm *layerMetrics, u *passResult) error
	// setupReps is how many times one pass repeats setup (median reported).
	setupReps() int
	// workers is the worker goroutine width, for provenance.
	workers() int
}

func digestOf(b []byte) string { return fmt.Sprintf("%x", md5.Sum(b)) }

// streamConfig returns the calibrated 320x180 stream, 4x4 mabs, with the
// workload seed as the content seed.
func streamConfig(seed int64, frames int) video.StreamConfig {
	sc := video.DefaultStreamConfig()
	sc.NumFrames = frames
	sc.Seed = seed
	return sc
}

// checkResult enforces the per-Result invariants: Frames equals the trace
// length and the energy parts sum to the reported total.
func (b *bench) checkResult(res *core.Result, tr *trace.Trace) {
	b.check(res.Frames == len(tr.Frames), "%s/%s: Frames %d != trace length %d", res.Workload, res.Scheme.Name, res.Frames, len(tr.Frames))
	parts := 0.0
	for _, k := range res.Energy.Keys() {
		v := res.Energy.Get(k)
		b.check(v >= 0, "%s/%s: negative energy part %s", res.Workload, res.Scheme.Name, k)
		parts += v
	}
	total := res.TotalEnergy()
	b.check(total > 0 && math.Abs(parts-total) <= 1e-12*total,
		"%s/%s: energy parts sum %.17g != total %.17g", res.Workload, res.Scheme.Name, parts, total)
}

// replayAll runs every (trace, scheme) pair, one run in flight, checking
// invariants and hashing the canonical results in order.
func (b *bench) replayAll(rec *recorder, parent int, traces []*trace.Trace, cfg core.Config, ct *coreTally) (opResult, [][]*core.Result) {
	schemes := core.StandardSchemes()
	h := md5.New()
	var out opResult
	results := make([][]*core.Result, len(traces))
	for i, tr := range traces {
		results[i] = make([]*core.Result, len(schemes))
		for j, s := range schemes {
			out.attempted++
			var prehash *float64
			if ct != nil && j == len(schemes)-1 {
				prehash = &ct.prehash
			}
			res, err := safeRun(func() (*core.Result, error) { return runScheme(rec, parent, tr, j, s, cfg, prehash) })
			if err != nil {
				out.failed++
				b.note("%s/%s: %v", tr.Profile, s.Name, err)
				continue
			}
			b.checkResult(res, tr)
			js, err := res.CanonicalJSON()
			if err != nil {
				out.failed++
				b.note("%s/%s: canonical JSON: %v", tr.Profile, s.Name, err)
				continue
			}
			h.Write(js)
			out.frames += int64(res.Frames)
			if ct != nil {
				ct.mabs += int64(res.Frames) * int64(tr.Params.MabsPerFrame())
			}
			results[i][j] = res
		}
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil))
	return out, results
}

// safeRun converts a panic in fn into an error.
func safeRun(fn func() (*core.Result, error)) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// meanNorm returns the mean over traces of scheme j's energy normalized to
// Baseline, or an error when a result is missing.
func meanNorm(results [][]*core.Result, j int) (float64, error) {
	if len(results) == 0 {
		return 0, fmt.Errorf("no results")
	}
	t := 0.0
	for _, row := range results {
		if row[0] == nil || row[j] == nil {
			return 0, fmt.Errorf("missing result")
		}
		t += row[j].NormalizedTo(row[0])
	}
	return t / float64(len(results)), nil
}

// ---------------------------------------------------------------- sweep ---

// sweepW is `report -exp fig11`: experiments.Runner.Fig11 over all 16
// Table 1 profiles with a fresh TraceCache per call and Workers = nproc.
type sweepW struct {
	b      *bench
	r      *experiments.Runner
	tables [2]string      // last rendered table, untraced and traced
	traces []*trace.Trace // the traced pass's cache fills, for the layer section
}

// variant indexes per-pass state: 0 untraced, 1 traced.
func variant(rec *recorder) int {
	if rec == nil {
		return 0
	}
	return 1
}

func (w *sweepW) setupReps() int { return 5 }
func (w *sweepW) workers() int   { return w.b.workers }

func (w *sweepW) setup(_ *recorder, _ int) error {
	cfg := experiments.Default()
	cfg.Stream = streamConfig(w.b.seed, sweepFrames)
	cfg.Workers = w.b.workers
	w.r = experiments.NewRunner(cfg)
	return nil
}

func (w *sweepW) op(rec *recorder, parent int) (opResult, error) {
	cache := experiments.NewTraceCache()
	w.r.Cache = cache
	if rec != nil {
		// Traced: fill the cache first, one span per trace build, so the
		// Fig11 span below is the replay share alone. The work is the
		// same as the untraced call, which builds each trace inside Fig11.
		w.traces = w.traces[:0]
		for _, key := range w.r.Cfg.Videos {
			sp := rec.begin(spanCacheGet, parent)
			tr, err := cache.Get(key, w.r.Cfg.Stream)
			rec.end(sp)
			if err != nil {
				return opResult{attempted: 1, failed: 1}, err
			}
			w.traces = append(w.traces, tr)
		}
	}
	sp := rec.begin(spanFig11, parent)
	tb, err := w.r.Fig11()
	rec.end(sp)
	if err != nil {
		return opResult{attempted: 1, failed: 1}, err
	}
	table := tb.String()
	w.tables[variant(rec)] = table
	rows := tableRows(table)
	videos := w.r.Cfg.Videos
	w.b.check(len(rows) == len(videos)+2, "fig11: %d rows, want %d", len(rows), len(videos)+2)
	for i, row := range rows {
		if i < len(videos)+1 { // video rows and avg
			w.b.check(len(row) >= 7 && row[1] == "1.000", "fig11 row %q: Baseline column is not 1.000", strings.Join(row, " "))
		}
	}
	return opResult{
		frames:    int64(len(videos) * len(core.StandardSchemes()) * w.r.Cfg.Stream.NumFrames),
		digest:    digestOf([]byte(table)),
		attempted: 1,
	}, nil
}

// tableRows splits a rendered stats.Table into whitespace-separated cells,
// skipping the header and rule lines.
func tableRows(s string) [][]string {
	var rows [][]string
	for i, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if i < 2 {
			continue
		}
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

func (w *sweepW) gabErr(rec *recorder) (float64, error) {
	for _, row := range tableRows(w.tables[variant(rec)]) {
		if len(row) >= 7 && row[0] == "avg" {
			var g float64
			if _, err := fmt.Sscanf(row[6], "%g", &g); err != nil {
				return 0, fmt.Errorf("fig11 avg GAB cell %q: %v", row[6], err)
			}
			return math.Abs(g - paperGAB), nil
		}
	}
	return 0, fmt.Errorf("fig11: no avg row")
}

func (w *sweepW) layers(rec *recorder, lm *layerMetrics, _ *passResult) error {
	sc := w.r.Cfg.Stream
	built := make([]*trace.Trace, len(w.traces))
	for i, ref := range w.traces {
		tr, err := buildLayers(rec, -1, ref.Profile, sc, &lm.build)
		if err != nil {
			return err
		}
		w.b.check(sameTrace(tr, ref) == nil, "layer-built trace differs from core.BuildTrace: %v", sameTrace(tr, ref))
		built[i] = tr
	}
	lm.tracesBuilt = len(built)
	lm.buildShare = ratio(rec.total(spanCacheGet), rec.total(spanCacheGet)+rec.total(spanFig11))
	_, results := w.b.replayAll(rec, -1, built, w.r.Cfg.Platform, &lm.core)
	lm.results = results
	// The benchmark's own replays must reproduce every Fig11 cell.
	rows := tableRows(w.tables[1])
	for i, row := range results {
		for j, res := range row {
			if res == nil || i >= len(rows) || len(rows[i]) <= j+1 {
				w.b.problem("fig11 cross-check: missing cell %d/%d", i, j)
				continue
			}
			got := fmt.Sprintf("%.3f", res.NormalizedTo(row[0]))
			w.b.check(got == rows[i][j+1], "fig11 %s/%s: table %s, replay %s", rows[i][0], schemeKeys[j], rows[i][j+1], got)
		}
	}
	for _, tr := range built {
		if err := isolatedChain(rec, -1, tr, w.r.Cfg.Platform, &lm.chain); err != nil {
			return err
		}
	}
	return nil
}

// --------------------------------------------------------------- replay ---

// replayW is the machsim shape: four prebuilt traces, each replayed under
// the six standard schemes through NewRunner / StepFrame / Finish on the
// default sequential config, one run in flight.
type replayW struct {
	b       *bench
	sc      video.StreamConfig
	cfg     core.Config
	traces  []*trace.Trace
	ref     []*trace.Trace      // the untraced set-up's core.BuildTrace traces
	results [2][][]*core.Result // first operation's results, untraced and traced
	build   layerBuild
	tally   coreTally
}

func (w *replayW) setupReps() int { return 3 }
func (w *replayW) workers() int   { return 1 }

func (w *replayW) setup(rec *recorder, parent int) error {
	w.sc = streamConfig(w.b.seed, replayFrames)
	w.cfg = core.DefaultConfig()
	w.traces = make([]*trace.Trace, len(replayKeys))
	for i, key := range replayKeys {
		var tr *trace.Trace
		var err error
		if rec == nil {
			tr, err = core.BuildTrace(key, w.sc)
		} else {
			tr, err = buildLayers(rec, parent, key, w.sc, &w.build)
		}
		if err != nil {
			return fmt.Errorf("building %s: %w", key, err)
		}
		w.traces[i] = tr
	}
	if rec == nil {
		w.ref = w.traces
	}
	return nil
}

func (w *replayW) op(rec *recorder, parent int) (opResult, error) {
	var ct *coreTally
	if rec != nil {
		ct = &w.tally
	}
	out, results := w.b.replayAll(rec, parent, w.traces, w.cfg, ct)
	if v := variant(rec); w.results[v] == nil {
		w.results[v] = results
	}
	return out, nil
}

func (w *replayW) gabErr(rec *recorder) (float64, error) {
	g, err := meanNorm(w.results[variant(rec)], len(schemeKeys)-1)
	return math.Abs(g - paperGAB), err
}

func (w *replayW) layers(rec *recorder, lm *layerMetrics, u *passResult) error {
	lm.buildShare = u.buildShare()
	lm.build = w.build
	lm.core = w.tally
	lm.tracesBuilt = len(w.traces)
	lm.results = w.results[1]
	for i, tr := range w.traces {
		w.b.check(sameTrace(tr, w.ref[i]) == nil, "layer-built trace differs from core.BuildTrace: %v", sameTrace(tr, w.ref[i]))
		if err := isolatedChain(rec, -1, tr, w.cfg, &lm.chain); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------- fleet ---

// fleetW is the machfleet shape: NewSupervisor is the setup, and each timed
// operation is one Supervisor.Run with shard manifests in a fresh directory.
type fleetW struct {
	b   *bench
	cfg fleet.Config
	sup *fleet.Supervisor
	n   int // operations run, naming fresh manifest directories
	// traced counts traced operations, which alternate with and without
	// a manifest directory.
	traced int
	agg    *fleet.Aggregate
	probe  [][]*core.Result // the layer section's six-scheme replays
}

func (w *fleetW) setupReps() int { return 3 }
func (w *fleetW) workers() int   { return w.b.workers }

func (w *fleetW) setup(_ *recorder, _ int) error {
	cfg := fleet.Default()
	cfg.Sessions = fleetSessions
	cfg.Seed = w.b.seed
	cfg.Workers = w.b.workers
	cfg.Profiles = replayKeys
	cfg.Stream = streamConfig(w.b.seed, fleetFrames)
	cfg.Platform.Delivery = delivery.LTE()
	cfg.Platform.ABR = abr.Config{Enabled: true, Policy: "buffer", FixedRung: -1}
	sup, err := fleet.NewSupervisor(cfg)
	if err != nil {
		return err
	}
	w.cfg, w.sup = cfg, sup
	return nil
}

func (w *fleetW) op(rec *recorder, parent int) (opResult, error) {
	failAll := opResult{attempted: w.cfg.Sessions, failed: w.cfg.Sessions}
	// Untraced runs always checkpoint; the traced pass alternates with and
	// without a manifest directory to isolate the checkpoint cost.
	name, dir := spanFleetDir, filepath.Join(w.b.runDir, fmt.Sprintf("fleet-%d", w.n))
	if rec != nil {
		if w.traced%2 == 1 {
			name, dir = spanFleetRun, ""
		}
		w.traced++
	}
	w.n++
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return failAll, err
		}
		defer os.RemoveAll(dir)
	}
	sp := rec.begin(name, parent)
	agg, err := w.sup.Run(fleet.RunOptions{Dir: dir})
	rec.end(sp)
	if err != nil {
		return failAll, err
	}
	w.agg = agg
	w.b.check(agg.Completed == w.cfg.Sessions && agg.Quarantined == 0,
		"fleet: %d of %d sessions completed, %d quarantined", agg.Completed, w.cfg.Sessions, agg.Quarantined)
	js, err := agg.CanonicalJSON()
	if err != nil {
		return failAll, err
	}
	return opResult{
		frames:    agg.TotalFrames,
		digest:    digestOf(js),
		attempted: w.cfg.Sessions,
		failed:    w.cfg.Sessions - agg.Completed,
	}, nil
}

// fullLength builds the fleet profiles' full-length traces.
func (w *fleetW) fullLength() ([]*trace.Trace, error) {
	out := make([]*trace.Trace, len(w.cfg.Profiles))
	for i, key := range w.cfg.Profiles {
		var err error
		if out[i], err = core.BuildTrace(key, w.cfg.Stream); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gabErr replays the fleet profiles' full-length traces under the six
// schemes on the perfect-network default platform (the Fig 11 setting),
// after the timed phase and untimed; the traced pass reuses the layer
// section's replays.
func (w *fleetW) gabErr(rec *recorder) (float64, error) {
	results := w.probe
	if rec == nil {
		traces, err := w.fullLength()
		if err != nil {
			return 0, err
		}
		_, results = w.b.replayAll(nil, -1, traces, core.DefaultConfig(), nil)
	}
	g, err := meanNorm(results, len(schemeKeys)-1)
	return math.Abs(g - paperGAB), err
}

func (w *fleetW) layers(rec *recorder, lm *layerMetrics, u *passResult) error {
	lm.buildShare = u.buildShare()
	// Every distinct (profile, length) trace the supervisor built, layer by
	// layer, checked against core.BuildTrace.
	type key struct {
		profile string
		frames  int
	}
	traces := map[key]*trace.Trace{}
	var order []key
	for _, p := range w.sup.Plans() {
		k := key{p.Profile, p.Frames}
		if traces[k] != nil {
			continue
		}
		sc := w.cfg.Stream
		sc.NumFrames = p.Frames
		tr, err := buildLayers(rec, -1, p.Profile, sc, &lm.build)
		if err != nil {
			return err
		}
		ref, err := core.BuildTrace(p.Profile, sc)
		if err != nil {
			return err
		}
		w.b.check(sameTrace(tr, ref) == nil, "layer-built trace differs from core.BuildTrace: %v", sameTrace(tr, ref))
		traces[k] = tr
		order = append(order, k)
	}
	lm.tracesBuilt = len(order)

	// Replay every session outside the supervisor to read the ABR switch
	// count the aggregate does not carry; the totals must match the
	// aggregate exactly or the replay is not the fleet's.
	var frames, drops, rebuf, switches int64
	energy := 0.0
	for _, p := range w.sup.Plans() {
		tr := traces[key{p.Profile, p.Frames}]
		res, err := core.Run(tr, w.cfg.Scheme, sessionConfig(w.cfg, p))
		if err != nil {
			return fmt.Errorf("session %d: %w", p.Session, err)
		}
		frames += int64(res.Frames)
		drops += res.Drops
		rebuf += res.Rebuffers
		energy += res.TotalEnergy()
		if res.ABR != nil {
			switches += res.ABR.Switches
		}
	}
	a := w.agg
	w.b.check(a != nil && frames == a.TotalFrames && drops == a.TotalDrops && rebuf == a.TotalRebuffers &&
		math.Abs(energy-a.TotalEnergyJ) <= 1e-12*a.TotalEnergyJ,
		"fleet session replay disagrees with the aggregate")
	lm.abrSwitches, lm.rebuffers = switches, rebuf
	if a != nil {
		lm.quarantined = a.Quarantined
	}
	lm.checkpointMs = 1e3 * (median(rec.durations(spanFleetDir)) - median(rec.durations(spanFleetRun)))

	var full []*trace.Trace
	for _, k := range order {
		if k.frames == w.cfg.Stream.NumFrames {
			full = append(full, traces[k])
		}
	}
	_, lm.results = w.b.replayAll(rec, -1, full, core.DefaultConfig(), &lm.core)
	w.probe = lm.results
	for _, tr := range full {
		if err := isolatedChain(rec, -1, tr, core.DefaultConfig(), &lm.chain); err != nil {
			return err
		}
	}
	return nil
}

// sessionConfig mirrors the fleet's per-session platform derivation
// (delivery seed, bandwidth scale, shared-bottleneck cell seed). The
// aggregate cross-check in layers fails if the two drift apart.
func sessionConfig(c fleet.Config, p fleet.Plan) core.Config {
	cfg := c.Platform
	cfg.CollectFrameSamples = false
	cfg.Parallel = 0
	if cfg.Delivery.Enabled {
		cfg.Delivery.Seed = p.Seed
		cfg.Delivery.BandwidthBps *= p.BandwidthScale
		if p.Contenders > 1 {
			cfg.Delivery.Bottleneck.Sessions = p.Contenders
			cfg.Delivery.Bottleneck.Seed = int64(splitmix64(uint64(c.Seed)^0xf1ee7^uint64(p.Cell)*0x9e3779b97f4a7c15) >> 1)
		}
	}
	return cfg
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
