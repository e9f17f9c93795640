// Package bench defines the benchmark regression report the repository
// commits as BENCH_machsim.json and the harness that regenerates it. A
// report is a flat list of records — one per timed cell — with a fixed
// schema (name, iterations, ns_per_op, mabs_per_sec, allocs_per_op,
// bytes_per_op) so CI can validate it without knowing which harness
// produced which row. Every row is a wall-clock or heap measurement taken
// on the host that wrote the file:
//
//   - engine/seq/<V>    one whole core.Runner replay of workload <V>
//   - engine/stepframe/<V> steady-state Runner.StepFrame cost after pool
//     warm-up; allocs_per_op/bytes_per_op carry its measured heap traffic
//     (gated at zero)
//   - sweep/seq         the 16-profile sweep run back to back
//   - gotest/Benchmark* rows merged in from `go test -bench` wrappers
//
// Records are kept sorted by name and files are rewritten atomically, so
// several emitters (the harness, then the go-test wrappers) can merge into
// one report.
package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Record is one benchmark result row. The JSON field names are the schema
// CI validates; do not rename them without updating cmd/machbench -check
// and EXPERIMENTS.md. Heap traffic is measured only by the steady-state
// rows (engine/stepframe/*); on every other row AllocsPerOp/BytesPerOp
// stay zero, the schema's usual "not applicable to this row" value.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	MabsPerSec  float64 `json:"mabs_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Validate checks one record against the schema: a non-empty name, at
// least one iteration, positive time, and non-negative rates. A zero
// MabsPerSec means "not applicable to this row" (micro benchmarks have no
// mab throughput).
func (r Record) Validate() error {
	switch {
	case r.Name == "":
		return fmt.Errorf("bench: record with empty name")
	case r.Iterations < 1:
		return fmt.Errorf("bench: %s: iterations %d < 1", r.Name, r.Iterations)
	case r.NsPerOp <= 0:
		return fmt.Errorf("bench: %s: ns_per_op %d <= 0", r.Name, r.NsPerOp)
	case r.MabsPerSec < 0:
		return fmt.Errorf("bench: %s: mabs_per_sec %g < 0", r.Name, r.MabsPerSec)
	case r.AllocsPerOp < 0:
		return fmt.Errorf("bench: %s: allocs_per_op %g < 0", r.Name, r.AllocsPerOp)
	case r.BytesPerOp < 0:
		return fmt.Errorf("bench: %s: bytes_per_op %g < 0", r.Name, r.BytesPerOp)
	}
	return nil
}

// Report is the committed benchmark file: a sorted list of records.
type Report struct {
	Records []Record `json:"records"`
}

// Add inserts rec, replacing any existing record with the same name, and
// keeps the list sorted so the committed file diffs cleanly.
func (p *Report) Add(rec Record) {
	for i := range p.Records {
		if p.Records[i].Name == rec.Name {
			p.Records[i] = rec
			return
		}
	}
	p.Records = append(p.Records, rec)
	sort.Slice(p.Records, func(i, j int) bool { return p.Records[i].Name < p.Records[j].Name })
}

// Find returns the record with the given name.
func (p *Report) Find(name string) (Record, bool) {
	for _, r := range p.Records {
		if r.Name == name {
			return r, true
		}
	}
	return Record{}, false
}

// Validate checks every record and rejects duplicate names.
func (p *Report) Validate() error {
	seen := make(map[string]bool, len(p.Records))
	for _, r := range p.Records {
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.Name] {
			return fmt.Errorf("bench: duplicate record %q", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}

// CheckAllocs validates the report and then enforces the heap gate: every
// record matching prefix must report allocs_per_op <= max. The committed
// engine/stepframe/* rows hold max = 0 — the steady-state frame step is
// allocation-free.
func (p *Report) CheckAllocs(prefix string, max float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	matched := 0
	for _, r := range p.Records {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		matched++
		if r.AllocsPerOp > max {
			return fmt.Errorf("bench: %s: allocs_per_op %g above the %g gate", r.Name, r.AllocsPerOp, max)
		}
	}
	if matched == 0 {
		return fmt.Errorf("bench: no record matches alloc gate prefix %q", prefix)
	}
	return nil
}

// ReadFile loads a report. A key outside the schema (a misspelt field, or
// one a past schema had) is an error, as is anything after the report
// object, so a stale or hand-edited file fails -check instead of passing
// with the key silently dropped.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Report
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("bench: %s: data after the report object", path)
	}
	return &p, nil
}

// WriteFile stores the report atomically (temp file + rename) with stable
// formatting, so concurrent readers never observe a torn file and the
// committed artifact is byte-reproducible for identical records.
func WriteFile(path string, p *Report) error {
	sort.Slice(p.Records, func(i, j int) bool { return p.Records[i].Name < p.Records[j].Name })
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bench-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// AppendRecord merges one record into the report at path, creating the
// file if needed. This is how the go-test benchmark wrappers feed their
// rows into the same file the harness writes.
func AppendRecord(path string, rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	p, err := ReadFile(path)
	if os.IsNotExist(err) {
		p = &Report{}
	} else if err != nil {
		return err
	}
	p.Add(rec)
	return WriteFile(path, p)
}
