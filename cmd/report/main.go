// Command report regenerates the paper's tables and figures (DESIGN.md maps
// each to its experiment) and prints them as text tables.
//
//	report                  # run everything at the default scale
//	report -exp fig11       # one experiment
//	report -quick           # reduced scale smoke run
//	report -frames 240 -width 640 -height 360 -videos 16
//	report -checkpoint-dir .report-ckpt   # crash-safe full regeneration
//
// With -checkpoint-dir, each completed experiment's rendered table is saved
// (atomically, checksummed, keyed by experiment id + the full scale/config)
// as soon as it finishes; rerunning after an interruption loads the finished
// cells from the cache and only computes what is missing. A damaged or
// mismatched cell is re-run fresh, never trusted.
package main

import (
	"crypto/md5"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mach/internal/checkpoint"
	"mach/internal/experiments"
	"mach/internal/stats"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (fig1a, fig2, fig4, fig5, fig6, fig7, fig9, fig10, fig11, fig12, table1, table2, dcc, record, te, replacement, colorspace, contention, delivery, netprofiles, abr, fleet) or 'all'")
		quick   = flag.Bool("quick", false, "reduced scale")
		frames  = flag.Int("frames", 0, "override frames per workload")
		width   = flag.Int("width", 0, "override frame width")
		height  = flag.Int("height", 0, "override frame height")
		nvids   = flag.Int("videos", 0, "override number of workloads")
		workers = flag.Int("workers", 0, "sweep fan-out width: independent cells of multi-run experiments share a bounded pool (0 = GOMAXPROCS)")
		ckptDir = flag.String("checkpoint-dir", "", "directory caching completed experiments; rerunning skips cells already finished at this exact configuration")
	)
	flag.Parse()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "report: -workers %d: want >= 0\n", *workers)
		os.Exit(2)
	}
	cfg.Workers = *workers
	if *frames > 0 {
		cfg.Stream.NumFrames = *frames
	}
	if *width > 0 {
		cfg.Stream.Width = *width
	}
	if *height > 0 {
		cfg.Stream.Height = *height
	}
	if *nvids > 0 && *nvids <= len(cfg.Videos) {
		cfg.Videos = cfg.Videos[:*nvids]
	}
	r := experiments.NewRunner(cfg)

	type entry struct {
		name, title string
		run         func() (*stats.Table, error)
	}
	all := []entry{
		{"table1", "Table 1: workload videos (synthetic stand-ins)", r.Table1},
		{"table2", "Table 2: simulated platform configuration", r.Table2},
		{"fig1a", "Fig 1a: baseline time/energy breakdown", r.Fig1a},
		{"fig2", "Fig 2: frame-time regions, baseline vs 16-frame batching", r.Fig2},
		{"fig4", "Fig 4: batch-size sweep at both DVFS points", func() (*stats.Table, error) { return r.Fig4(nil) }},
		{"fig5", "Fig 5: DRAM row-buffer behaviour at low vs high VD frequency", r.Fig5},
		{"fig6", "Fig 6: Race-to-Sleep grid (batch x frequency)", func() (*stats.Table, error) { return r.Fig6(nil) }},
		{"fig7a", "Fig 7a: decode-cache size sweep (address locality)", func() (*stats.Table, error) { return r.Fig7a(nil) }},
		{"fig7b", "Fig 7b: ideal content similarity (16-frame window)", r.Fig7b},
		{"fig9a", "Fig 9a: MACH memory savings (mab vs gab vs optimal)", r.Fig9a},
		{"fig9b", "Fig 9b: digest popularity concentration", r.Fig9b},
		{"fig10c", "Fig 10c: display-cache size sensitivity", func() (*stats.Table, error) { return r.Fig10c(nil) }},
		{"fig10d", "Fig 10d: gab record indexing split at the display", r.Fig10d},
		{"fig10e", "Fig 10e: display memory-access savings", r.Fig10e},
		{"fig11", "Fig 11: normalized energy, 16 videos x 6 schemes (headline)", r.Fig11},
		{"fig12a", "Fig 12a: frame buffers vs number of MACHs", func() (*stats.Table, error) { return r.Fig12a(nil) }},
		{"fig12b", "Fig 12b: MACH-buffer entries sweep", func() (*stats.Table, error) { return r.Fig12b(nil) }},
		{"fig12c", "Fig 12c: mab size sensitivity (V14)", func() (*stats.Table, error) { return r.Fig12c(nil) }},
		{"fig12d", "Fig 12d: hash functions and collisions", r.Fig12d},
		{"dcc", "Sec 6.2: GAB + Delta Color Compression", r.DCC},
		{"record", "Sec 6.4: recording pipeline (camera + encoder MACH)", r.Record},
		{"te", "Related work: checksum transaction elimination vs MACH", r.RelatedTE},
		{"replacement", "Ablation: MACH replacement policy (LRU/LFU/FIFO/optimal)", r.Replacement},
		{"colorspace", "Sec 4 claim: content caching across colour spaces", r.ColorSpace},
		{"contention", "Ablation: background SoC traffic", func() (*stats.Table, error) { return r.Contention(nil) }},
		{"slackpredict", "Related work: history-based slack-predictive DVFS vs race-to-sleep", r.SlackPrediction},
		{"delivery", "Fault injection: stall rate x bandwidth under imperfect delivery", func() (*stats.Table, error) { return r.Delivery(nil, nil) }},
		{"netprofiles", "Fault injection: GAB across link profiles", r.DeliveryProfiles},
		{"abr", "Graceful degradation: link headroom x contention x ABR policy", func() (*stats.Table, error) { return r.ABRContention(nil, nil) }},
		{"fleet", "Fleet scale: per-user energy/QoE distributions under churn and contention", func() (*stats.Table, error) { return r.Fleet(0) }},
	}

	// Each cached cell is fingerprinted with the experiment id plus the
	// full experiment configuration, so changing any scale knob silently
	// invalidates every cell instead of serving stale tables.
	cellFP := func(name string) checkpoint.Fingerprint {
		cfgJSON, err := json.Marshal(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: config fingerprint: %v\n", err)
			os.Exit(1)
		}
		return checkpoint.Fingerprint(md5.Sum(append(cfgJSON, name...)))
	}

	want := strings.ToLower(*exp)
	matched, failed := 0, 0
	for _, e := range all {
		if want != "all" && !strings.HasPrefix(e.name, want) {
			continue
		}
		matched++

		cellPath := ""
		if *ckptDir != "" {
			cellPath = filepath.Join(*ckptDir, e.name+".mckp")
			rendered, err := checkpoint.Load(cellPath, cellFP(e.name))
			if err == nil {
				fmt.Printf("== %s ==\n%s(%s, cached)\n\n", e.title, rendered, e.name)
				continue
			}
			if !errors.Is(err, fs.ErrNotExist) {
				// Damaged or from a different configuration: recompute.
				fmt.Fprintf(os.Stderr, "report: %s: ignoring cached cell: %v\n", e.name, err)
			}
		}

		start := time.Now()
		tb, err := runExperiment(e.run)
		if err != nil {
			// One broken experiment becomes an error row; the rest of the
			// report still regenerates.
			failed++
			fmt.Fprintf(os.Stderr, "report: %s: %v\n", e.name, err)
			fmt.Printf("== %s ==\nERROR: %v\n(%s, %.1fs)\n\n", e.title, err, e.name, time.Since(start).Seconds())
			continue
		}
		fmt.Printf("== %s ==\n%s(%s, %.1fs)\n\n", e.title, tb, e.name, time.Since(start).Seconds())
		if cellPath != "" {
			if err := checkpoint.Save(cellPath, cellFP(e.name), []byte(tb.String())); err != nil {
				fmt.Fprintf(os.Stderr, "report: %s: saving cell: %v\n", e.name, err)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "report: %d of %d experiments failed\n", failed, matched)
		os.Exit(1)
	}
	if matched == 0 {
		names := make([]string, len(all))
		for i, e := range all {
			names[i] = e.name
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "report: unknown experiment %q; available: %s\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}

// runExperiment isolates one experiment: a panic in its model code is
// recovered and reported as an error so the remaining experiments still run.
func runExperiment(run func() (*stats.Table, error)) (tb *stats.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return run()
}
