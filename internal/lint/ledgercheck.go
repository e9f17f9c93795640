package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LedgerCheck enforces the accounting invariant behind the Fig 11 energy
// split: every produced quantity of energy lands in exactly one ledger.
// A producer is a call whose single result carries an energy dimension
// (power.Watts.Over, energy.SRAMConfig.Overhead, the ledger Total()
// accessors — anything returning energy.Joules or energy.Picojoules).
// Three failure shapes are flagged, all flow-sensitively over the CFG:
//
//   - the producer's result is discarded as a bare expression statement
//     (the energy was computed and dropped on the floor);
//   - the result is bound to a variable that no path ever reads before
//     redefinition or function exit (a dead store — same drop, one hop
//     later);
//   - the same produced value flows into two or more accumulators
//     (+= into an energy-dimensioned location, or an Add call on one of
//     the stats accumulator types), double-counting the energy.
//
// `_ = producer()` is the explicit, greppable discard and always passes.
// dram.Memory.Access is deliberately not a producer even though it both
// moves energy and returns a completion time: posted writes legitimately
// ignore the completion time, and the memory model accrues its own energy
// internally.
//
// Checkpoint save/restore paths (the Snapshot/Restore methods behind
// internal/checkpoint) copy already-accounted energy between a ledger and
// its serialized state struct as plain field reads and assignments. No
// producer call fires, so no joule is created and nothing needs an ignore:
// the analyzer is silent on those paths by construction. The invariant
// still holds across a restore — what a restore must never do is rerun a
// producer for energy it is reloading, which would land the same joule in
// a second ledger and is flagged like any other double count (see
// testdata/ledgercheck/restore.go).
var LedgerCheck = &Analyzer{
	Name: "ledgercheck",
	Doc: "flag energy-producing call results that are dropped, dead-stored, or " +
		"accumulated into more than one ledger (every joule lands in exactly one ledger)",
	Run: runLedgerCheck,
}

// accumulatorTypes names the receiver types whose Add method is a ledger
// sink. Keyed by type name so golden corpora can declare local copies,
// like the unitflow dimension table.
var accumulatorTypes = map[string]bool{
	"Breakdown": true,
	"Sample":    true,
	"Running":   true,
	"Histogram": true,
}

// isEnergyDim reports whether a dimension string is an energy.
func isEnergyDim(d string) bool { return strings.HasPrefix(d, "energy") }

// isProducerCall reports whether e is a genuine call (not a conversion)
// whose single result carries an energy dimension — by its declared unit
// type, or (interprocedurally) by the callee summaries when
// the helper returns its joules through a plain float64. Every resolved
// dispatch target must agree; a lone disagreeing implementation makes the
// call's dimension unknown, not energy.
func isProducerCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion: a rescale boundary, not a producer
	}
	if tv, ok := pass.Info.Types[call]; ok && isEnergyDim(typeDim(tv.Type)) {
		return true
	}
	if pass.graph == nil {
		return false
	}
	targets := pass.graph.calleesOf(call)
	if len(targets) == 0 {
		return false
	}
	for _, t := range targets {
		if t.sum == nil || len(t.sum.resultDims) != 1 || !isEnergyDim(t.sum.resultDims[0]) {
			return false
		}
	}
	return true
}

// containsProducer reports whether any subexpression of e is a producer
// call, without descending into func literals.
func containsProducer(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ex, ok := n.(ast.Expr); ok && isProducerCall(pass, ex) {
			found = true
		}
		return !found
	})
	return found
}

func runLedgerCheck(pass *Pass) {
	funcBodies(pass, func(decl *ast.FuncDecl) {
		checkLedgerFlows(pass, decl.Body)
	})
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkLedgerFlows(pass, lit.Body)
			}
			return true
		})
	}
}

func checkLedgerFlows(pass *Pass, body *ast.BlockStmt) {
	g := buildCFG(pass, body)
	captured := capturedVars(pass, body)
	for _, b := range g.blocks {
		for j, n := range b.nodes {
			// (a) produced and dropped on the floor.
			if es, ok := n.(*ast.ExprStmt); ok && isProducerCall(pass, es.X) {
				pass.Reportf(es.Pos(), "result of %s carries energy but is discarded; accumulate it into a ledger or assign it to _ explicitly",
					pass.ExprString(es.X))
				continue
			}
			a, ok := n.(*ast.AssignStmt)
			if !ok || (a.Tok != token.ASSIGN && a.Tok != token.DEFINE) {
				continue
			}
			pairs := assignTargets(a)
			for _, p := range pairs {
				if !containsProducer(pass, p[1]) {
					continue
				}
				v := lhsVar(pass, p[0])
				if v == nil || captured[v] {
					continue // blank/field/indexed targets end the trace
				}
				checkProducedVar(pass, g, b, j, a, v)
			}
		}
	}
}

// checkProducedVar classifies every forward-reachable read of v after its
// definition at node index j of block b: no reads is a dead store, two or
// more accumulator sinks is double counting.
func checkProducedVar(pass *Pass, g *funcCFG, b *block, j int, def *ast.AssignStmt, v *types.Var) {
	reads := reachableReads(pass, g, b, j+1, v)
	if len(reads) == 0 {
		pass.Reportf(def.Pos(), "energy assigned to %q is never accumulated or read on any path; every joule lands in exactly one ledger (assign to _ to discard)",
			v.Name())
		return
	}
	var sinks []string
	for _, n := range reads {
		sinks = append(sinks, sinkUses(pass, n, v)...)
	}
	if len(sinks) > 1 {
		sort.Strings(sinks)
		pass.Reportf(def.Pos(), "energy assigned to %q flows into %d accumulators (%s); every joule lands in exactly one ledger",
			v.Name(), len(sinks), strings.Join(sinks, ", "))
	}
}

// reachableReads collects every node that reads v on some path forward
// from node index start of block from, stopping each path at a
// redefinition of v.
func reachableReads(pass *Pass, g *funcCFG, from *block, start int, v *types.Var) []ast.Node {
	var reads []ast.Node
	entered := make([]bool, len(g.blocks))
	var visit func(b *block, idx int)
	visit = func(b *block, idx int) {
		for j := idx; j < len(b.nodes); j++ {
			n := b.nodes[j]
			if nodeReads(pass, n, v) {
				reads = append(reads, n)
			}
			if nodeWrites(pass, n, v) {
				return
			}
		}
		for _, s := range b.succs {
			if !entered[s.index] {
				entered[s.index] = true
				visit(s, 0)
			}
		}
	}
	visit(from, start)
	return reads
}

// sinkUses returns a description of every accumulator sink in node n that
// consumes v: a += / -= whose right side reads v, or an Add call on one of
// the stats accumulator types with v inside an argument.
func sinkUses(pass *Pass, n ast.Node, v *types.Var) []string {
	var sinks []string
	root := n
	if rng, ok := n.(*ast.RangeStmt); ok {
		root = rng.X
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Rhs) == 1 && exprReadsVar(pass, n.Rhs[0], v) {
				sinks = append(sinks, pass.ExprString(n.Lhs[0]))
			}
		case *ast.CallExpr:
			if isAccumulatorAdd(pass, n) {
				for _, arg := range n.Args {
					if exprReadsVar(pass, arg, v) {
						sinks = append(sinks, pass.ExprString(n.Fun))
						break
					}
				}
				return true
			}
			// Interprocedural sink: the value feeds a callee
			// parameter that the callee's summary accumulates into an
			// energy ledger — energy produced here, deposited one call away.
			if pass.graph == nil {
				return true
			}
			for _, callee := range pass.graph.calleesOf(n) {
				if callee.sum == nil {
					continue
				}
				hit := false
				for k, acc := range callee.sum.accParam {
					if !acc {
						continue
					}
					for _, arg := range argsForParam(n, callee, k) {
						if exprReadsVar(pass, arg, v) {
							sinks = append(sinks, pass.ExprString(n.Fun))
							hit = true
							break
						}
					}
					if hit {
						break
					}
				}
				if hit {
					break
				}
			}
		}
		return true
	})
	return sinks
}

// isAccumulatorAdd reports whether call invokes Add on one of the stats
// accumulator types.
func isAccumulatorAdd(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Name() != "Add" {
		return false
	}
	named := recvNamed(fn)
	return named != nil && accumulatorTypes[named.Obj().Name()]
}

// exprReadsVar reports whether expression e references v (outside func
// literals).
func exprReadsVar(pass *Pass, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}
