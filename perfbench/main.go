// Command perfbench is the repository's benchmark. It drives three
// workloads through the library entry points users call — sweep
// (experiments.Runner.Fig11, as `report -exp fig11`), replay (NewRunner /
// StepFrame / Finish, as machsim) and fleet (fleet.Supervisor, as
// machfleet) — checks their outputs, and prints host-time and simulated
// metrics. run.py builds it from source and runs it from the repository
// root:
//
//	python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off. With --trace 1 it sets the workload up untraced and traced, then
// alternates untraced and traced operations for --seconds, and prints the
// per-layer metrics: spans around every call the benchmark makes into a
// layer, the simulated per-layer counts from core.Result and
// fleet.Aggregate, and the tracing overhead.
// Human-readable lines come first; the last line of standard output is the
// JSON result. The exit code is 1 when any output check fails, 2 on bad
// usage.
package main

import (
	"crypto/md5"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mach/internal/core"
)

func main() {
	os.Exit(run())
}

// bench holds one invocation's settings and its failure accounting.
type bench struct {
	workload  string
	seed      int64
	seconds   float64
	workers   int
	runDir    string
	heap      *heapPeak
	attempted int
	failed    int
	problems  []string
	digest    string // the first operation's digest; every later one must match
}

// problem records a failed check or operation.
func (b *bench) problem(format string, args ...any) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// note records why an operation failed; the operation's own count carries
// the failure.
func (b *bench) note(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// check records a failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problem(format, args...)
	}
}

func run() int {
	name := flag.String("workload", "", "workload: sweep | replay | fleet")
	seed := flag.Int64("seed", 1, "workload seed: content seed for sweep and replay, fleet seed for fleet")
	seconds := flag.Int("seconds", 10, "measured seconds per run (the traced run alternates untraced and traced operations over them)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *seconds > 600 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|replay|fleet --seed N --seconds 1..600 --trace 0|1")
		return 2
	}
	b := &bench{workload: *name, seed: *seed, seconds: float64(*seconds), workers: runtime.NumCPU()}
	var w workload
	switch *name {
	case "sweep":
		w = &sweepW{b: b}
	case "replay":
		w = &replayW{b: b}
	case "fleet":
		w = &fleetW{b: b}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want sweep, replay or fleet)\n", *name)
		return 2
	}

	// Cold start: a fresh scratch directory inside the checkout for fleet
	// manifests and anything else written to TMPDIR, removed on exit.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if b.runDir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	os.Setenv("TMPDIR", b.runDir)
	b.heap = startHeapPeak()
	defer b.heap.close()

	ms := &metricSet{}
	run := b.untracedRun
	if *traced == 1 {
		run = b.tracedRun
	}
	err = run(w, ms)
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	prov := provenance(b, w.workers(), *traced)
	pj, _ := json.Marshal(prov)
	fmt.Printf("# provenance %s\n", pj)
	for _, n := range ms.names {
		m := ms.vals[n]
		fmt.Printf("# %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	correct := b.failed == 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, b.attempted, b.failed, ms.vals})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// buildDir is the checkout-local directory for build outputs and scratch.
const buildDir = ".bench_build"

// passResult is one pass over a workload, untraced or traced: repeated
// set-up, then closed-loop timed operations.
type passResult struct {
	rec      *recorder // nil for the untraced pass
	setupS   float64   // process start to the first timed operation, median set-up
	setupOne float64   // median of the set-up repetitions alone
	cpuSetup float64   // CPU time / (wall × GOMAXPROCS) during set-up
	opS      []float64 // wall time of each timed operation
	opCPU    float64   // CPU time of the timed operations
	rates    []float64 // simulated frames per host second of each successful operation
	setupMB  float64   // peak live heap during set-up
	opMB     []float64 // peak live heap during each timed operation
	gabErr   float64
}

func (p *passResult) timedS() float64 { return sum(p.opS) }

// rate is the median over timed operations of simulated frames per host
// second. Every operation of a pass replays the same frames, so the median
// discards operations a transient host stall slowed.
func (p *passResult) rate() float64 { return median(p.rates) }

// cpuRun is CPU time / (wall × GOMAXPROCS) over the timed operations.
func (p *passResult) cpuRun() float64 {
	return ratio(p.opCPU, p.timedS()*float64(runtime.GOMAXPROCS(0)))
}

// buildShare is the share of one set-up plus one timed operation spent in
// set-up, where replay and fleet build their traces.
func (p *passResult) buildShare() float64 {
	return ratio(p.setupOne, p.setupOne+median(p.opS))
}

// peakMB is the larger of the set-up's peak live heap and the median over
// timed operations of each one's peak. Which collection happens to mark
// the most data is a matter of timing; the median over operations keeps
// a rare unlucky cycle from deciding the figure.
func (p *passResult) peakMB() float64 { return max(p.setupMB, median(p.opMB)) }

// endToEnd writes the pass's end-to-end metrics.
func (p *passResult) endToEnd(ms *metricSet) {
	ms.set("setup_s", p.setupS, "s")
	ms.set("sim_frames_per_s", p.rate(), "1/s")
	ms.set("gab_energy_err", p.gabErr, "ratio")
	ms.set("peak_heap_mb", p.peakMB(), "MiB")
}

// setup runs the workload's set-up setupReps times. pre is the time from
// process start to the first set-up, charged to setup_s.
func (b *bench) setup(w workload, p *passResult, pre float64) error {
	b.heap.takeMB()
	var setups []float64
	cpu0, wall0 := cpuSeconds(), time.Now()
	for i := 0; i < w.setupReps(); i++ {
		t0 := time.Now()
		sp := p.rec.begin(spanSetup, -1)
		err := w.setup(p.rec, sp)
		p.rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s setup: %w", b.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p.cpuSetup = ratio(cpuSeconds()-cpu0, time.Since(wall0).Seconds()*float64(runtime.GOMAXPROCS(0)))
	p.setupOne = median(setups)
	p.setupS = pre + p.setupOne
	p.setupMB = b.heap.takeMB()
	return nil
}

// op runs one timed operation and checks its digest against the first.
func (b *bench) op(w workload, p *passResult) {
	b.heap.takeMB()
	cpu0, t0 := cpuSeconds(), time.Now()
	sp := p.rec.begin(spanOp, -1)
	res, err := w.op(p.rec, sp)
	p.rec.end(sp)
	wall := time.Since(t0).Seconds()
	p.opS = append(p.opS, wall)
	p.opCPU += cpuSeconds() - cpu0
	p.opMB = append(p.opMB, b.heap.takeMB())
	b.attempted += res.attempted
	b.failed += res.failed
	if err != nil {
		b.note("%v", err)
		return
	}
	p.rates = append(p.rates, ratio(float64(res.frames), wall))
	if b.digest == "" {
		b.digest = res.digest
	}
	b.check(res.digest == b.digest, "operation digest %s != first digest %s", res.digest, b.digest)
}

// untracedRun is --trace 0: set-up, then at least two timed operations and
// as many more as fit in --seconds.
func (b *bench) untracedRun(w workload, ms *metricSet) error {
	u := &passResult{}
	if err := b.setup(w, u, time.Since(processStart).Seconds()); err != nil {
		return err
	}
	for start := time.Now(); len(u.opS) < 2 || time.Since(start).Seconds() < b.seconds; {
		b.op(w, u)
	}
	var err error
	if u.gabErr, err = w.gabErr(nil); err != nil {
		return fmt.Errorf("%s gab energy: %w", b.workload, err)
	}
	u.endToEnd(ms)
	return nil
}

// coreTally accumulates what the traced core replays did besides spans.
type coreTally struct {
	mabs    int64   // mabs stepped
	prehash float64 // Runner.PrehashWall over the GAB runs, seconds
}

// layerMetrics collects the traced run's per-layer inputs.
type layerMetrics struct {
	build        layerBuild
	core         coreTally
	chain        chainStats
	results      [][]*core.Result
	tracesBuilt  int
	buildShare   float64
	checkpointMs float64
	abrSwitches  int64
	rebuffers    int64
	quarantined  int
}

// tracedRun is --trace 1. The untraced and the traced set-up run first;
// then untraced and traced operations alternate for --seconds, so drift in
// host speed falls on both sides of trace.overhead alike. The layer
// section follows, untimed by the end-to-end metrics.
func (b *bench) tracedRun(w workload, ms *metricSet) error {
	u, t := &passResult{}, &passResult{rec: &recorder{}}
	pre := time.Since(processStart).Seconds()
	if err := b.setup(w, u, pre); err != nil {
		return err
	}
	if err := b.setup(w, t, pre); err != nil {
		return err
	}
	for start := time.Now(); len(t.opS) < 1 || time.Since(start).Seconds() < b.seconds; {
		b.op(w, u)
		b.op(w, t)
	}
	lm := &layerMetrics{}
	if err := w.layers(t.rec, lm, u); err != nil {
		return fmt.Errorf("%s layer section: %w", b.workload, err)
	}
	var err error
	if u.gabErr, err = w.gabErr(nil); err != nil {
		return fmt.Errorf("%s gab energy: %w", b.workload, err)
	}
	if t.gabErr, err = w.gabErr(t.rec); err != nil {
		return fmt.Errorf("%s gab energy: %w", b.workload, err)
	}
	b.check(math.Float64bits(t.gabErr) == math.Float64bits(u.gabErr), "traced gab_energy_err %.17g != untraced %.17g", t.gabErr, u.gabErr)
	lm.emit(ms, t.rec, u)

	ue, te := &metricSet{}, &metricSet{}
	u.endToEnd(ue)
	t.endToEnd(te)
	for _, n := range ue.names {
		ms.set("trace.overhead."+n, te.vals[n].Value-ue.vals[n].Value, ue.vals[n].Unit)
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "spans"), 0o755); err != nil {
		return err
	}
	return t.rec.write(filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed)))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in insertion order for the human-readable lines.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func (m *metricSet) set(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{v, unit}
}

// provenance describes the host and the run.
func provenance(b *bench, workers, traced int) map[string]any {
	return map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     gitCommit(),
		"source_md5": sourceDigest(),
		"in_flight":  1, // every workload is a closed loop with one client
		"workers":    workers,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from .git without running git, or reports that
// the checkout is not a git repository.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}

// sourceDigest is the md5 over the path and content of every .go and go.mod
// file of the checkout, in walk order: it identifies the measured source
// where no git metadata is present.
func sourceDigest() string {
	h := md5.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
