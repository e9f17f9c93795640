package lint

import (
	"go/ast"
	"go/types"
)

// PurityCheck statically guards the parallel-equals-sequential guarantee
// that the sweep and fleet determinism tests only probe dynamically:
// internal/par promises that work sharded over N workers is bit-identical
// to the sequential run, which holds only if every worker body is pure — no writes to state shared between workers, no map
// iteration over shared maps (order feeds the scheduler), no wall clock or
// process-global randomness. The determinism analyzer checks goroutine
// literals syntactically; this analyzer checks the functions that actually
// run inside par.Pool workers, transitively, using the call-graph summaries:
//
//   - at every call of (Pool).Map / (Pool).ForShards, the worker argument is
//     resolved (literal, package function, method value, or once-bound
//     closure) and its summary must be pure;
//   - the obligation follows function-typed parameters through forwarding
//     layers (summary.poolParam): experiments.runIsolated(n, fn) hands fn to
//     pool.Map, so every closure passed to runIsolated is checked at its own
//     call site, where it can be resolved.
//
// Worker-local state is fine: writes into a slot of a shared slice selected
// by a worker-local index, and state built fresh inside the worker (a
// Runner from NewRunner), carry no shared-write effect in the summaries.
var PurityCheck = &Analyzer{
	Name: "puritycheck",
	Doc: "functions executed inside par.Pool workers must be summary-pure: no shared-state " +
		"writes, no shared map iteration, no time/rand — statically enforcing that parallel " +
		"runs equal sequential runs",
	Run: runPurityCheck,
}

func runPurityCheck(pass *Pass) {
	g := pass.graph
	if g == nil {
		return
	}
	for _, n := range g.nodes {
		walkOwnLevel(n.body, func(nd ast.Node) {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return
			}
			if wi, ok := poolWorkerArg(pass, call); ok && wi < len(call.Args) {
				checkWorker(pass, g, call.Args[wi])
			}
			// Forwarded obligation: an argument feeding a callee parameter
			// that ends up running as a worker is itself a worker.
			for _, callee := range g.calleesOf(call) {
				if callee.sum == nil {
					continue
				}
				for k, isPool := range callee.sum.poolParam {
					if !isPool {
						continue
					}
					for _, arg := range argsForParam(call, callee, k) {
						checkWorker(pass, g, arg)
					}
				}
			}
		})
	}
}

// poolWorkerArg recognizes a par worker-pool call and returns the index of
// the worker argument: (Pool).Map(n, fn) and (Pool).ForShards(n, grain, fn).
// Matching is by method name on a named receiver type called Pool, so the
// golden corpora can declare a local Pool.
func poolWorkerArg(pass *Pass, call *ast.CallExpr) (int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return 0, false
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Name() != "Pool" {
		return 0, false
	}
	switch fn.Name() {
	case "Map":
		return 1, true
	case "ForShards":
		return 2, true
	}
	return 0, false
}

// checkWorker resolves a worker-valued expression and reports every
// impurity its summary carries. Unresolvable workers (a parameter, an
// arbitrary field) are skipped here — parameters are handled by the
// poolParam obligation at the caller, which is the one place they resolve.
func checkWorker(pass *Pass, g *callGraph, worker ast.Expr) {
	n := workerNode(pass, g, worker)
	if n == nil || n.sum == nil {
		return
	}
	s := n.sum
	report := func(e *effect, what string) {
		if e == nil {
			return
		}
		pass.Reportf(worker.Pos(), "par worker %s %s: %s; workers must be pure (no shared writes, no shared map iteration, no time/rand) or the parallel run diverges from the sequential one",
			n.name, what, e.detail)
	}
	report(s.timeRand, "is nondeterministic")
	report(s.writesGlobal, "writes package-level state")
	report(s.rangesGlobal, "iterates a package-level map in nondeterministic order")
	for _, e := range s.writesCaptured {
		report(e, "writes state shared across workers")
	}
	for _, e := range s.rangesCaptured {
		report(e, "iterates a shared map in nondeterministic order")
	}
	// A method value binds one receiver that every worker invocation
	// shares; receiver writes are shared writes.
	if _, isSel := ast.Unparen(worker).(*ast.SelectorExpr); isSel {
		report(s.writesRecv, "writes its bound receiver, shared by every worker")
		report(s.rangesRecv, "iterates its bound receiver's map, shared by every worker")
	}
}

// workerNode resolves a worker expression to its function node: a literal,
// a package function or method value, or a once-bound closure variable.
func workerNode(pass *Pass, g *callGraph, e ast.Expr) *funcNode {
	if t := g.staticFuncValue(e); t != nil {
		return t
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if v, ok := pass.Info.Uses[id].(*types.Var); ok {
			return g.bindOnce[v]
		}
	}
	return nil
}
