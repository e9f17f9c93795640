// Tier-1 enforcement of the machlint invariants: `go test ./...` fails if
// any future change reintroduces wall-clock time or global randomness into
// the simulation packages, mixes unit-typed or unit-suffixed quantities
// (flow-sensitively, through float64 conversions and across calls), drops
// or double-counts a produced joule, leaves a Snapshot/Restore field
// uncovered, lets a pool worker touch shared state, leaves an error
// unchecked on some control-flow path or drops an I/O error in the
// trace/record/cmd layers, compares floats for equality, compares a value
// with itself, allocates per frame on a hot path, or leaves a stale or
// unknown lint:ignore directive behind. This is the same ten-analyzer suite
// `go run ./cmd/machlint ./...` runs; see internal/lint and the
// "Static analysis (machlint)" section of DESIGN.md.
package mach

import (
	"testing"

	"mach/internal/lint"
)

func TestMachlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	fset, pkgs, err := lint.LoadModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	diags := lint.RunAnalyzers(fset, pkgs, lint.All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the findings or add `//lint:ignore <check> <reason>` where the code is deliberately exempt (see README.md)")
	}
}
