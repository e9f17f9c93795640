package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mach/internal/video"
)

func validRecord(name string) Record {
	return Record{Name: name, Iterations: 2, NsPerOp: 1000, MabsPerSec: 1e6}
}

func TestRecordValidate(t *testing.T) {
	if err := validRecord("a").Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Record{
		{},
		{Name: "x", Iterations: 0, NsPerOp: 1},
		{Name: "x", Iterations: 1, NsPerOp: 0},
		{Name: "x", Iterations: 1, NsPerOp: 1, MabsPerSec: -1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d validated", i)
		}
	}
}

func TestReportAddReplacesAndSorts(t *testing.T) {
	var p Report
	p.Add(validRecord("b"))
	p.Add(validRecord("a"))
	rec := validRecord("b")
	rec.NsPerOp = 42
	p.Add(rec)
	if len(p.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(p.Records))
	}
	if p.Records[0].Name != "a" || p.Records[1].Name != "b" {
		t.Fatalf("not sorted: %v", p.Records)
	}
	if got, _ := p.Find("b"); got.NsPerOp != 42 {
		t.Fatalf("Add did not replace: %+v", got)
	}
}

// TestReportCheck covers the schema half of `machbench -check`:
// Report.Validate rejects duplicate names and any invalid record.
func TestReportCheck(t *testing.T) {
	var p Report
	p.Add(validRecord("engine/seq/V1"))
	p.Add(validRecord("sweep/seq"))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := Report{Records: []Record{validRecord("a"), validRecord("a")}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate names passed")
	}
	bad := Report{Records: []Record{validRecord("a"), {Name: "b"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid record passed")
	}
}

// TestReadFileRejectsUnknownKeys: a key outside the schema, such as the
// retired speedup_vs_seq or a misspelt field, fails the load instead of
// being dropped; so does trailing data after the report.
func TestReadFileRejectsUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"stale":    `{"records":[{"name":"sweep/seq","iterations":2,"ns_per_op":5,"mabs_per_sec":1,"speedup_vs_seq":1,"allocs_per_op":0,"bytes_per_op":0}]}`,
		"misspelt": `{"records":[{"name":"sweep/seq","iterations":2,"ns_per_ops":5}]}`,
		"top":      `{"records":[],"host":"x"}`,
		"trailing": `{"records":[]} {"records":[]}`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	path := filepath.Join(dir, "ok.json")
	ok := `{"records":[{"name":"sweep/seq","iterations":2,"ns_per_op":5,"mabs_per_sec":1,"allocs_per_op":0,"bytes_per_op":0}]}` + "\n"
	if err := os.WriteFile(path, []byte(ok), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 1 || p.Records[0].NsPerOp != 5 {
		t.Fatalf("loaded %+v", p.Records)
	}
}

func TestReportCheckAllocs(t *testing.T) {
	var p Report
	clean := validRecord("engine/stepframe/V1")
	p.Add(clean)
	leaky := validRecord("engine/stepframe/V2")
	leaky.AllocsPerOp = 2.5
	leaky.BytesPerOp = 192
	p.Add(leaky)
	if err := p.CheckAllocs("engine/stepframe/", 3); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckAllocs("engine/stepframe/", 0); err == nil {
		t.Fatal("allocating row passed the zero gate")
	}
	if err := p.CheckAllocs("nosuch/", 0); err == nil {
		t.Fatal("unmatched prefix passed")
	}
	neg := validRecord("engine/stepframe/V3")
	neg.AllocsPerOp = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative allocs_per_op validated")
	}
}

func TestFileRoundTripAndAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := AppendRecord(path, validRecord("one")); err != nil {
		t.Fatal(err)
	}
	if err := AppendRecord(path, validRecord("two")); err != nil {
		t.Fatal(err)
	}
	p, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Report{}
	want.Add(validRecord("one"))
	want.Add(validRecord("two"))
	if !reflect.DeepEqual(p.Records, want.Records) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", p.Records, want.Records)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"name"`, `"iterations"`, `"ns_per_op"`, `"mabs_per_sec"`, `"allocs_per_op"`, `"bytes_per_op"`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("schema field %s missing from file:\n%s", field, data)
		}
	}
	if err := AppendRecord(path, Record{Name: "bad"}); err == nil {
		t.Fatal("invalid record appended")
	}
}

// TestHarnessTinyRun exercises the full harness at a smoke scale and checks
// the report shape: one seq and one stepframe row per workload, the sweep
// row, and a valid schema throughout.
func TestHarnessTinyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("times full pipeline runs")
	}
	sc := video.DefaultStreamConfig()
	sc.Width, sc.Height, sc.NumFrames = 160, 96, 8
	rep, err := Run(Options{
		Videos:     []string{"V1", "V4", "V8"},
		Stream:     sc,
		Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Records), 3*2+1; got != want {
		t.Fatalf("got %d records, want %d: %+v", got, want, rep.Records)
	}
	var seqSum int64
	for _, key := range []string{"V1", "V4", "V8"} {
		seq, ok := rep.Find("engine/seq/" + key)
		if !ok {
			t.Errorf("missing engine/seq/%s", key)
		}
		seqSum += seq.NsPerOp
		step, ok := rep.Find("engine/stepframe/" + key)
		if !ok {
			t.Errorf("missing engine/stepframe/%s", key)
			continue
		}
		// The steady-state frame step is allocation-free by construction;
		// this is the same property the committed report gates.
		if step.AllocsPerOp != 0 || step.BytesPerOp != 0 {
			t.Errorf("engine/stepframe/%s not allocation-free: %.2f allocs/op, %.0f B/op",
				key, step.AllocsPerOp, step.BytesPerOp)
		}
	}
	seq, ok := rep.Find("sweep/seq")
	if !ok || seq.MabsPerSec <= 0 {
		t.Fatalf("sweep/seq missing or rate-less: %+v", seq)
	}
	if seq.NsPerOp != seqSum {
		t.Fatalf("sweep/seq %d ns, want the engine/seq/* sum %d", seq.NsPerOp, seqSum)
	}
}
