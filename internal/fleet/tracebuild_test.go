package fleet

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mach/internal/core"
)

// testConfigAggregateMD5 is the md5 of testConfig's canonical aggregate as
// produced when the supervisor still built its traces one after another.
const testConfigAggregateMD5 = "f381b4eac7012fceb88868d3c99d6e4e"

// TestTracesBuildOnPool checks that building the shared traces side by side
// on the pool changes nothing: every trace equals a serial BuildTrace, and
// the aggregate is byte-for-byte the one the serial build produced.
func TestTracesBuildOnPool(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sup.traces) < 2 {
		t.Fatalf("%d distinct traces; the test needs several to build at once", len(sup.traces))
	}
	for k, tr := range sup.traces {
		sc := sup.cfg.Stream
		sc.NumFrames = k.frames
		want, err := core.BuildTrace(k.profile, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Errorf("trace %s/%d built on the pool differs from a serial build", k.profile, k.frames)
		}
	}
	agg, err := sup.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := agg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if sum := md5.Sum(b); hex.EncodeToString(sum[:]) != testConfigAggregateMD5 {
		t.Fatalf("aggregate md5 %x, want %s:\n%s", sum, testConfigAggregateMD5, b)
	}
}

// TestTraceBuildErrorDeterministic makes every build fail and checks the
// reported error names the first trace key in plan order, however the pool
// scheduled the builds.
func TestTraceBuildErrorDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	cfg.Stream.Width = 90 // not a multiple of the mab size
	first := cfg.normalize().Plans()[0]
	want := fmt.Sprintf("fleet: building trace %s/%d frames:", first.Profile, first.Frames)
	for i := 0; i < 5; i++ {
		_, err := NewSupervisor(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("error %v, want prefix %q", err, want)
		}
	}
}
