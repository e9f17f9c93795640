package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the committed corpus instead of comparing:
//
//	go test ./internal/core -run TestGoldenResults -update
//
// Review the resulting diff like any accounting change — every field that
// moved is a behaviour change the PR must justify.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current engine")

// goldenScale is the corpus scale: small enough that all 16 workloads
// build in seconds, large enough that every accounting path (matches,
// drops, coalescing, display reuse) is exercised. Changing any of these
// constants invalidates the whole corpus.
const goldenFrames = 16

// TestGoldenResults replays every workload profile through the headline
// GAB scheme and compares the full canonical result — every timing,
// energy, DRAM, MACH, display and delivery counter — byte-for-byte
// against the committed corpus. Any engine drift fails tier-1 with a
// field-level diff instead of surfacing weeks later as an unexplained
// shift in a paper figure.
func TestGoldenResults(t *testing.T) {
	for _, key := range WorkloadKeys() {
		t.Run(key, func(t *testing.T) {
			tr := testTrace(t, key, goldenFrames)
			res := mustRun(t, tr, GAB(DefaultBatch), testConfig())
			got, err := res.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", key+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden result (regenerate with -update after reviewing why): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: canonical result drifted from golden corpus; first %s\n(rerun with -update only if the change is intended)",
					key, firstDiffLine(want, got))
			}
		})
	}
}

// TestGoldenCorpusComplete fails when a profile is added without a golden
// file or a stale golden file outlives its profile, so the corpus and the
// workload table cannot drift apart silently.
func TestGoldenCorpusComplete(t *testing.T) {
	if *updateGolden {
		t.Skip("corpus being rewritten")
	}
	want := map[string]bool{traceDigestFile: true}
	for _, key := range WorkloadKeys() {
		want[key+".json"] = true
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("stale golden file %s has no matching workload", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("workload %s missing from the golden corpus", name)
	}
}

// firstDiffLine renders the first differing line of two texts, with a line
// number, for readable failure output.
func firstDiffLine(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	if len(al) != len(bl) {
		return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
	}
	return "no line-level difference (byte-level only)"
}
