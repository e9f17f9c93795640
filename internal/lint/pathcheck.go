package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PathCheck is the error-flow analyzer. Its path rule flags an error
// variable that is assigned from a call and then, on at least one
// control-flow path, is overwritten or reaches the function exit without
// ever being read:
//
//	err := step1()
//	if cond {
//	        err = step2() // first error was never checked
//	}
//
// which per-node inspection cannot see. Reads anywhere count — returning
// the error, comparing it, passing it to a function, wrapping it. Variables
// captured by a closure are skipped (the closure may read them at any
// time), as are named result parameters (falling off the end returns
// them, which is the caller's check).
//
// Its statement rule covers the drop no variable ever holds: in the I/O
// layers (internal/trace, internal/record and the cmd/ tools) a call into
// io, os, bufio, encoding/* or compress/* used as an expression statement
// discards its error, which means a truncated trace file or a
// silently-corrupt report. Assigning any result (including to _) is an
// explicit, greppable acknowledgement, and `defer f.Close()` on read paths
// is the accepted idiom, so defer/go statements are exempt.
var PathCheck = &Analyzer{
	Name: "pathcheck",
	Doc: "flag error values that are assigned from a call and then overwritten or " +
		"dropped at function exit without being read on some control-flow path, and " +
		"(in internal/trace, internal/record and cmd/) statement-level calls into " +
		"io/os/bufio/encoding/compress that discard an error result",
	Run: runPathCheck,
}

// discardScope is where the statement rule applies: the layers that write
// traces, recordings and reports.
var discardScope = []string{
	"mach/internal/trace",
	"mach/internal/record",
	"mach/cmd",
}

// ioPackage reports whether dropped errors from a callee owned by path are
// flagged by the statement rule.
func ioPackage(path string) bool {
	switch path {
	case "io", "os", "bufio":
		return true
	}
	return strings.HasPrefix(path, "encoding/") || strings.HasPrefix(path, "compress/")
}

func runPathCheck(pass *Pass) {
	funcBodies(pass, func(decl *ast.FuncDecl) {
		skip := capturedVars(pass, decl.Body)
		for _, v := range namedResults(pass, decl.Type) {
			skip[v] = true
		}
		checkErrorPaths(pass, decl.Body, skip)
	})
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				skip := capturedVars(pass, lit.Body)
				for _, v := range namedResults(pass, lit.Type) {
					skip[v] = true
				}
				checkErrorPaths(pass, lit.Body, skip)
			}
			return true
		})
	}
	if inScope(pass.Path, discardScope) {
		checkDiscardedErrors(pass)
	}
}

// checkDiscardedErrors applies the statement rule: an expression-statement
// call into an I/O package whose last result is an error.
func checkDiscardedErrors(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil {
				return true
			}
			sig := fn.Type().(*types.Signature)
			if res := sig.Results(); res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
				return true
			}
			pkg, name := fn.Pkg(), fn.Name()
			if sig.Recv() != nil {
				named := recvNamed(fn)
				if named == nil {
					return true
				}
				pkg, name = named.Obj().Pkg(), named.Obj().Name()+"."+name
			}
			if pkg == nil || !ioPackage(pkg.Path()) {
				return true
			}
			pass.Reportf(call.Pos(), "error returned by %s is discarded; check it or assign it explicitly", name)
			return true
		})
	}
}

func checkErrorPaths(pass *Pass, body *ast.BlockStmt, skip map[*types.Var]bool) {
	g := buildCFG(pass, body)
	for _, b := range g.blocks {
		for j, n := range b.nodes {
			for _, v := range errorDefs(pass, n) {
				// Only variables declared inside this body are this body's
				// responsibility: a closure assigning the enclosing
				// function's named result (the deferred-recover idiom)
				// hands the error to the enclosing scope, and package
				// globals outlive every function.
				if skip[v] || v.Pos() < body.Pos() || v.Pos() > body.End() {
					continue
				}
				fates := explorePaths(pass, g, b, j+1, v)
				// The defining node may read the old value (err =
				// wrap(err)); only the new definition's fate matters.
				switch {
				case fates.UnreadRedef != nil:
					pass.Reportf(n.Pos(), "error assigned to %q is overwritten at line %d without being checked on some path",
						v.Name(), pass.Fset.Position(fates.UnreadRedef.Pos()).Line)
				case fates.UnreadExit:
					pass.Reportf(n.Pos(), "error assigned to %q reaches function exit without being checked on some path", v.Name())
				}
			}
		}
	}
}

// errorDefs returns the error-typed local variables that node n defines
// from a call. Plain resets (err = nil) are not definitions worth
// tracking: there is nothing to check.
func errorDefs(pass *Pass, n ast.Node) []*types.Var {
	a, ok := n.(*ast.AssignStmt)
	if !ok || (a.Tok != token.ASSIGN && a.Tok != token.DEFINE) {
		return nil
	}
	var defs []*types.Var
	add := func(lhs ast.Expr) {
		v := lhsVar(pass, lhs)
		if v != nil && isErrorType(v.Type()) && !v.IsField() && v.Pkg() != nil {
			defs = append(defs, v)
		}
	}
	if pairs := assignTargets(a); pairs != nil {
		for _, p := range pairs {
			if containsCall(p[1]) {
				add(p[0])
			}
		}
		return defs
	}
	// v, err := f()
	if len(a.Rhs) == 1 && containsCall(a.Rhs[0]) {
		for _, lhs := range a.Lhs {
			add(lhs)
		}
	}
	return defs
}

func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// namedResults lists a function type's named result variables: reaching
// the exit assigns them to the caller, which is itself the check.
func namedResults(pass *Pass, ft *ast.FuncType) []*types.Var {
	if ft == nil || ft.Results == nil {
		return nil
	}
	var out []*types.Var
	for _, field := range ft.Results.List {
		for _, name := range field.Names {
			if v, ok := pass.Info.ObjectOf(name).(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}
