package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the DESIGN.md replay guarantee inside the simulation
// packages: the same seeded workload must produce bit-identical results on
// every run. Three classes of violation are flagged:
//
//   - time.Now — wall-clock time leaking into simulated time or seeds;
//   - the global math/rand source (rand.Intn, rand.Float64, rand.Seed, …) —
//     only explicitly seeded rand.New(rand.NewSource(seed)) generators are
//     reproducible and replayable;
//   - range over a map whose body appends to a slice, prints, or sends on a
//     channel — Go randomizes map iteration order, so any ordered output
//     built inside such a loop differs between runs;
//   - a `go func(){...}` literal that writes a captured variable — a data
//     race, and even when "benign" the interleaving makes results depend
//     on goroutine scheduling. The worker-pool ownership idioms pass:
//     writes to goroutine-local variables, channel sends, writes into a
//     slice slot selected by a goroutine-local index (each worker owns its
//     slots), and bodies that take a sync lock.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, the global math/rand source, order-dependent " +
		"map iteration, and unsynchronized captured-variable writes in goroutines " +
		"in the simulation packages (internal/sim, core, video, mach, delivery, experiments, par, fleet)",
	Run: runDeterminism,
}

// determinismScope lists the import-path subtrees whose replay the checks
// protect. Code outside (cmd/, examples/, the I/O layers) may use the wall
// clock freely, e.g. to time report generation.
var determinismScope = []string{
	"mach/internal/sim",
	"mach/internal/core",
	"mach/internal/video",
	"mach/internal/mach",
	"mach/internal/delivery",
	"mach/internal/experiments",
	"mach/internal/par",
	"mach/internal/fleet",
}

func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// globalRandAllowed lists the math/rand package-level functions that do not
// touch the process-global source.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(pass *Pass) {
	if !inScope(pass.Path, determinismScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.GoStmt:
				checkGoroutineCaptures(pass, n)
			}
			return true
		})
	}
}

// calleeFunc resolves a call expression to the package-level function or
// method it invokes, or nil for builtins, conversions and function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// recvNamed returns the named type a method is declared on (through one
// pointer), or nil for plain functions and methods of unnamed types.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func checkNondeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Methods (e.g. (*rand.Rand).Intn on a seeded generator) are fine;
	// only package-level functions reach the global state below.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now leaks wall-clock time into the simulation; derive times from sim.Time and seeds from config")
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[fn.Name()] {
			pass.Reportf(call.Pos(), "rand.%s uses the process-global random source; use a seeded rand.New(rand.NewSource(seed)) so runs replay identically", fn.Name())
		}
	}
}

// checkMapRange flags range-over-map loops whose bodies have order-sensitive
// effects. Order-insensitive uses (counting, summing integers, building
// another map, deleting) pass untouched.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "sends on a channel"
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if obj, ok := pass.Info.Uses[fun].(*types.Builtin); ok && obj.Name() == "append" {
					sink = "appends to a slice"
				}
			case *ast.SelectorExpr:
				if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil {
					if fn.Pkg().Path() == "fmt" && strings.Contains(fn.Name(), "rint") {
						sink = "formats output"
					}
					if isWriterMethod(fn) {
						sink = "writes to a buffer"
					}
				}
			}
		}
		return true
	})
	if sink != "" {
		pass.Reportf(rng.Pos(), "map iteration order is randomized but this loop %s; iterate over sorted keys instead", sink)
	}
}

// checkGoroutineCaptures flags writes to captured variables inside a
// `go func(){...}` literal. Only syntactic goroutine launches of function
// literals are analyzed (a named function receiving shared state through
// its parameters is the caller's contract to get right), which keeps the
// check free of false positives on the worker-pool callbacks the sweep and
// fleet fan-outs run through par.Pool.
func checkGoroutineCaptures(pass *Pass, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	// A body that takes a lock has declared its synchronization story;
	// whether the guard actually covers every write is the race
	// detector's job, not a static lint's.
	if bodyLocks(pass, lit) {
		return
	}
	report := func(pos ast.Node, name string) {
		pass.Reportf(pos.Pos(), "goroutine writes captured variable %q: results then depend on scheduling; "+
			"give each goroutine its own index-addressed slot, send on a channel, or guard with a sync lock", name)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.GoStmt); ok && inner != g {
			// Nested launches are visited by the outer Inspect pass.
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if name, bad := capturedWrite(pass, lit, lhs); bad {
					report(lhs, name)
				}
			}
		case *ast.IncDecStmt:
			if name, bad := capturedWrite(pass, lit, n.X); bad {
				report(n.X, name)
			}
		}
		return true
	})
}

// bodyLocks reports whether the literal's body calls a Lock/RLock method
// (sync.Mutex, sync.RWMutex, or anything implementing the same contract).
func bodyLocks(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if fn := calleeFunc(pass, call); fn != nil {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
				(fn.Name() == "Lock" || fn.Name() == "RLock") {
				found = true
			}
		}
		return !found
	})
	return found
}

// capturedWrite decides whether assigning through lhs mutates state
// captured from outside the function literal. It unwraps selectors,
// dereferences and index expressions down to the root identifier;
// indexing a captured slice with a goroutine-local index is the engine's
// sanctioned slot-ownership pattern and passes, while map indexing is
// never safe concurrently.
func capturedWrite(pass *Pass, lit *ast.FuncLit, lhs ast.Expr) (name string, bad bool) {
	viaSliceIndex := false
	localIndex := true
	expr := lhs
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			tv, ok := pass.Info.Types[e.X]
			if !ok {
				return "", false
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				// Concurrent map writes fault at runtime; no index
				// discipline makes them safe.
				if root, captured := rootCaptured(pass, lit, e.X); captured {
					return root, true
				}
				return "", false
			}
			viaSliceIndex = true
			if !exprLocal(pass, lit, e.Index) {
				localIndex = false
			}
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			if e.Name == "_" {
				return "", false
			}
			obj := pass.Info.ObjectOf(e)
			if obj == nil || !isCaptured(lit, obj) {
				return "", false
			}
			if viaSliceIndex && localIndex {
				return "", false // index-owned slot in a shared slice
			}
			return e.Name, true
		default:
			return "", false
		}
	}
}

// rootCaptured finds the root identifier of expr and reports whether it
// is captured from outside the literal.
func rootCaptured(pass *Pass, lit *ast.FuncLit, expr ast.Expr) (string, bool) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			obj := pass.Info.ObjectOf(e)
			if obj != nil && isCaptured(lit, obj) {
				return e.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// exprLocal reports whether every variable the expression reads is
// declared inside the literal (parameters included): such an expression
// is goroutine-local and safe to use as a slot index.
func exprLocal(pass *Pass, lit *ast.FuncLit, expr ast.Expr) bool {
	local := true
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !local {
			return local
		}
		if obj, ok := pass.Info.ObjectOf(id).(*types.Var); ok && isCaptured(lit, obj) {
			local = false
		}
		return local
	})
	return local
}

// isCaptured reports whether obj is declared outside the literal's
// source range (and is a variable — functions, types and constants are
// immutable and never racy to read).
func isCaptured(lit *ast.FuncLit, obj types.Object) bool {
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}

// isWriterMethod reports whether fn is a Write* method on the standard
// output-accumulating types.
func isWriterMethod(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil || !strings.HasPrefix(fn.Name(), "Write") {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer", "bufio.Writer":
		return true
	}
	return false
}
