package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden runs every analyzer over its testdata corpus: files seeded
// with violations (`// want` assertions), files whose violations carry
// lint:ignore directives (zero surviving diagnostics), and clean files.
// Corpora of analyzers folded into a live one keep their own subtest: the
// files live under the absorbing analyzer's testdata directory, prefixed,
// and run there with its rules.
func TestGolden(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			files, err := GoldenFiles(".", a.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, file := range files {
				if foldedCorpusOf(a.Name, file) == "" {
					runGolden(t, a, file)
				}
			}
		})
	}
	for _, c := range foldedCorpora {
		t.Run(c.name, func(t *testing.T) {
			files, err := filepath.Glob(filepath.Join("testdata", c.into, c.prefix+"*.go"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) == 0 {
				t.Fatalf("no %s*.go files in testdata/%s", c.prefix, c.into)
			}
			for _, file := range files {
				runGolden(t, ByName(c.into), file)
			}
		})
	}
}

// foldedCorpora maps each retired analyzer's corpus to the analyzer that
// absorbed its rule and the file-name prefix its files carry there.
var foldedCorpora = []struct{ name, into, prefix string }{
	{"errcheck", "pathcheck", "discard_"},
	{"unitsafety", "unitflow", "suffix_"},
}

// foldedCorpusOf names the folded corpus a golden file of analyzer belongs
// to, or "" if it is the analyzer's own.
func foldedCorpusOf(analyzer, file string) string {
	for _, c := range foldedCorpora {
		if c.into == analyzer && strings.HasPrefix(filepath.Base(file), c.prefix) {
			return c.name
		}
	}
	return ""
}

func runGolden(t *testing.T, a *Analyzer, file string) {
	t.Helper()
	problems, err := RunGoldenFile(a, file)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for _, p := range problems {
		t.Errorf("%s", p)
	}
}

// TestGoldenCorporaMatchSuite keeps testdata/ and All() in bijection: every
// analyzer has a non-empty corpus, and every corpus directory names a live
// analyzer, so a corpus deleted instead of moved, or orphaned by a removed
// analyzer, fails here instead of silently never running.
func TestGoldenCorporaMatchSuite(t *testing.T) {
	for _, a := range All() {
		if _, err := GoldenFiles(".", a.Name); err != nil {
			t.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && ByName(e.Name()) == nil {
			t.Errorf("testdata/%s names no analyzer in All(); its corpus never runs", e.Name())
		}
	}
}

// checkSource type-checks an inline source string and runs the given
// analyzers over it.
func checkSource(t *testing.T, src, pkgPath string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckFile(fset, f, pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	return RunAnalyzers(fset, []*Package{pkg}, analyzers)
}

func TestMalformedIgnoreDirective(t *testing.T) {
	src := `package p

//lint:ignore
var X = 1
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{SelfCompare})
	if len(diags) != 1 || diags[0].Check != "lintdirective" {
		t.Fatalf("want one lintdirective diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "malformed") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A directive missing the reason is malformed even when it names a check:
// the written justification is the point.
func TestIgnoreDirectiveRequiresReason(t *testing.T) {
	src := `package p

//lint:ignore floateq
var X = 1
`
	diags := checkSource(t, src, "example.com/p", nil)
	if len(diags) != 1 || diags[0].Check != "lintdirective" {
		t.Fatalf("want one lintdirective diagnostic, got %v", diags)
	}
}

// A directive naming a check the suite does not have (a typo, or a retired
// analyzer) suppresses nothing and would never be reported stale, so it is
// itself a finding in every run, full suite or subset.
func TestIgnoreDirectiveUnknownCheck(t *testing.T) {
	src := `package p

func eq(a, b float64) bool {
	//lint:ignore nosuchcheck fixture: misspelled check name
	return a == b
}

//lint:ignore floateq,errcheck fixture: one retired name among live ones
var x = 1
`
	for _, analyzers := range [][]*Analyzer{All(), {SelfCompare}} {
		var unknown []string
		for _, d := range checkSource(t, src, "example.com/p", analyzers) {
			if d.Check == "lintdirective" {
				unknown = append(unknown, d.Message)
			}
		}
		if len(unknown) != 2 || !strings.Contains(unknown[0], `"nosuchcheck"`) || !strings.Contains(unknown[1], `"errcheck"`) {
			t.Errorf("%d analyzers: want unknown-check findings for nosuchcheck and errcheck, got %v", len(analyzers), unknown)
		}
	}
}

func TestSuppressionDoesNotLeakAcrossLines(t *testing.T) {
	src := `package p

//lint:ignore floateq reason applies to the next line only
var gap = 1

func eq(a, b float64) bool { return a == b }
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{FloatEq})
	if len(diags) != 1 || diags[0].Check != "floateq" {
		t.Fatalf("directive two lines away must not suppress; got %v", diags)
	}
}

func TestIgnoreAllMatchesEveryCheck(t *testing.T) {
	src := `package p

func eq(a, b float64) bool {
	//lint:ignore all fixture
	return a == b
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{FloatEq})
	if len(diags) != 0 {
		t.Fatalf("lint:ignore all must suppress, got %v", diags)
	}
}

// //lint:derived is sugar for an ignore scoped to statecheck; without a
// reason it is malformed like any other directive.
func TestDerivedDirectiveRequiresReason(t *testing.T) {
	src := `package p

//lint:derived
var X = 1
`
	diags := checkSource(t, src, "example.com/p", nil)
	if len(diags) != 1 || diags[0].Check != "lintdirective" {
		t.Fatalf("want one lintdirective diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "lint:derived") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A derived annotation on a field Restore actually covers is stale, and
// staleignore says so in derived vocabulary.
func TestStaleDerivedAnnotation(t *testing.T) {
	src := `package p

type State struct{ X int64 }

type M struct {
	//lint:derived fixture: x is actually serialized, so this is stale
	x int64
}

func (m *M) Step() { m.x++ }

func (m *M) Snapshot() State { return State{X: m.x} }

func (m *M) Restore(st State) error {
	m.x = st.X
	return nil
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{StateCheck, StaleIgnore})
	if len(diags) != 1 || diags[0].Check != "staleignore" {
		t.Fatalf("want one staleignore diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "lint:derived annotation marks no un-snapshotted field") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A derived annotation doing real work both suppresses the statecheck
// finding and is not stale.
func TestDerivedAnnotationSuppresses(t *testing.T) {
	src := `package p

type State struct{ X int64 }

type M struct {
	x int64
	//lint:derived scratch is rebuilt by Step before every read
	scratch int64
}

func (m *M) Step() {
	m.x++
	m.scratch = m.x * 2
}

func (m *M) Snapshot() State { return State{X: m.x} }

func (m *M) Restore(st State) error {
	m.x = st.X
	return nil
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{StateCheck, StaleIgnore})
	if len(diags) != 0 {
		t.Fatalf("derived annotation must suppress and not be stale, got %v", diags)
	}
}

// //lint:hotpath without a reason is malformed: the reason documents why the
// function runs per frame.
func TestHotpathDirectiveRequiresReason(t *testing.T) {
	src := `package p

//lint:hotpath
func Step() {}
`
	diags := checkSource(t, src, "example.com/p", nil)
	if len(diags) != 1 || diags[0].Check != "lintdirective" {
		t.Fatalf("want one lintdirective diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "lint:hotpath") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A hotpath annotation that sits on anything but a function declaration
// resolves to no root; staleignore flags it in hotpath vocabulary.
func TestMisplacedHotpathAnnotation(t *testing.T) {
	src := `package p

//lint:hotpath fixture: this marks a variable, not a function
var X = 1

func Step() {
	_ = make([]byte, 8)
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{Allocheck, StaleIgnore})
	if len(diags) != 1 || diags[0].Check != "staleignore" {
		t.Fatalf("want one staleignore diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "lint:hotpath annotation marks no function declaration") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A hotpath root doing real work both seeds the allocheck cone and is not
// stale.
func TestHotpathRootSeedsConeAndIsNotStale(t *testing.T) {
	src := `package p

//lint:hotpath fixture: per-frame entry point
func Step(n int) []byte {
	return make([]byte, n)
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{Allocheck, StaleIgnore})
	if len(diags) != 1 || diags[0].Check != "allocheck" {
		t.Fatalf("want one allocheck diagnostic and no staleness, got %v", diags)
	}
}

// In a subset run without allocheck, hotpath roots are never resolved, so
// staleignore must not flag them: applicability follows the directive's
// checks list, exactly like lint:ignore allocheck directives.
func TestHotpathAnnotationSafeInSubsetRuns(t *testing.T) {
	src := `package p

//lint:hotpath fixture: per-frame entry point
func Step(n int) []byte {
	return make([]byte, n)
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{FloatEq, StaleIgnore})
	if len(diags) != 0 {
		t.Fatalf("subset run without allocheck must not report hotpath staleness, got %v", diags)
	}
}

// Hotpath annotations are roots, not suppressions: an allocation on the
// line they annotate stays reported.
func TestHotpathAnnotationDoesNotSuppress(t *testing.T) {
	src := `package p

//lint:hotpath fixture: the directive must not vouch for this make
func Step(n int) []byte { return make([]byte, n) }
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{Allocheck})
	if len(diags) != 1 || diags[0].Check != "allocheck" {
		t.Fatalf("hotpath annotation must not suppress adjacent findings, got %v", diags)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Fatalf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName of unknown check must be nil")
	}
}

// TestLoadModuleSmoke loads this module and sanity-checks the loader: the
// package set covers the simulation subtrees and type-checks without
// errors (the tree builds, so any type error is a loader defect).
func TestLoadModuleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	fset, pkgs, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	if fset == nil {
		t.Fatal("nil fset")
	}
	paths := map[string]bool{}
	for _, p := range pkgs {
		paths[p.Path] = true
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	for _, want := range []string{"mach", "mach/internal/sim", "mach/internal/core", "mach/cmd/machlint", "mach/internal/lint"} {
		if !paths[want] {
			t.Errorf("loader missed package %s (got %d packages)", want, len(pkgs))
		}
	}
}
