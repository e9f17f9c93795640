package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Per-function summaries, computed bottom-up over the SCC condensation of
// each package's call graph (recursive cycles iterate to a fixpoint; the
// effect lattice is finite and grows monotonically, so it converges). A
// summary answers, for any call site, the questions the interprocedural
// analyzers ask:
//
//   - purity/determinism effects: does the function (transitively) read the
//     wall clock or the global math/rand source, range over a map, or write
//     state it does not own? Effects are recorded against the *root* the
//     mutated state hangs off — a global, the receiver, a parameter, or a
//     captured variable — so a call site can translate them through its own
//     arguments: a callee that writes its receiver is harmless when the
//     receiver is a local the caller just built, and damning when it is
//     shared state captured by a par worker.
//   - unit dimensions: the dimension of each result (so a Joules total
//     returned as a plain float64 cannot launder into Watts in the caller)
//     and of each plain-typed parameter the body constrains additively.
//   - ledger sinks: parameters that flow into an energy accumulator, so
//     energy produced in one function and deposited by a helper is visible
//     to ledgercheck's exactly-one-ledger rule.
//
// Unknown callees — the standard library, and interface dispatch that
// resolves to no module implementation — default to effect-free and
// dimensionless. That optimistic default mirrors the determinism analyzer's
// explicit denylist (time.Now, global rand) and keeps the analyzers
// quiet on code they cannot see; the denylist itself is checked directly at
// every call site, so the two known-bad stdlib effects never slip through.
//
// Two sanctions mirror the determinism analyzer's concurrency idioms:
// writes into an index-addressed slot of shared state selected by a
// function-local index are slot-ownership, not shared mutation; and a body
// that takes a sync lock has declared its synchronization story, so its
// write effects are dropped (wall-clock and map-order effects remain — a
// lock serializes writes, it does not order map iteration).

// effect is one observed impurity: where it was observed in the current
// package, and a human-readable chain of how it happens.
type effect struct {
	pos    token.Pos
	detail string
}

// summary is the per-function fact table.
type summary struct {
	timeRand       *effect
	writesGlobal   *effect
	rangesGlobal   *effect
	writesRecv     *effect
	rangesRecv     *effect
	writesParam    []*effect
	rangesParam    []*effect
	writesCaptured map[*types.Var]*effect
	rangesCaptured map[*types.Var]*effect

	guarded       bool // body takes a sync lock
	returnsShared bool // some result may alias receiver/param/global/captured state

	resultDims []string // dimension of each result ("" unknown/conflicting)
	paramDims  []string // dimension constraint of each parameter
	accParam   []bool   // parameter flows into an energy accumulator
	poolParam  []bool   // parameter runs as a par worker (puritycheck obligation)
}

func newSummary(n *funcNode) *summary {
	np := len(n.params)
	nr := 0
	if n.sig != nil {
		nr = n.sig.Results().Len()
	}
	return &summary{
		writesParam:    make([]*effect, np),
		rangesParam:    make([]*effect, np),
		writesCaptured: map[*types.Var]*effect{},
		rangesCaptured: map[*types.Var]*effect{},
		resultDims:     make([]string, nr),
		paramDims:      make([]string, np),
		accParam:       make([]bool, np),
		poolParam:      make([]bool, np),
	}
}

// signature encodes the summary's presence bits for fixpoint convergence.
func (s *summary) signature() string {
	var sb strings.Builder
	b := func(v bool) {
		if v {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	b(s.timeRand != nil)
	b(s.writesGlobal != nil)
	b(s.rangesGlobal != nil)
	b(s.writesRecv != nil)
	b(s.rangesRecv != nil)
	b(s.guarded)
	b(s.returnsShared)
	for _, e := range s.writesParam {
		b(e != nil)
	}
	for _, e := range s.rangesParam {
		b(e != nil)
	}
	fmt.Fprintf(&sb, "|c%d,%d|", len(s.writesCaptured), len(s.rangesCaptured))
	sb.WriteString(strings.Join(s.resultDims, ";"))
	sb.WriteByte('|')
	sb.WriteString(strings.Join(s.paramDims, ";"))
	for _, v := range s.accParam {
		b(v)
	}
	for _, v := range s.poolParam {
		b(v)
	}
	return sb.String()
}

// pure reports whether the summary records no effect a par worker is
// forbidden (writes to shared state, shared map iteration, wall clock or
// global randomness). Receiver/parameter-rooted effects are relative — the
// call site decides whether those roots are shared — so they do not count
// here.
func (s *summary) pure() bool {
	return s.timeRand == nil && s.writesGlobal == nil && s.rangesGlobal == nil &&
		len(s.writesCaptured) == 0 && len(s.rangesCaptured) == 0
}

// ---------------------------------------------------------------------------
// Root classification

type rootClass int

const (
	classFresh rootClass = iota // local to the function (or an owned slot)
	classGlobal
	classRecv
	classParam
	classCaptured
)

type rootRef struct {
	class rootClass
	index int        // parameter index for classParam
	v     *types.Var // the variable for classCaptured
}

// classifier resolves what state an expression of one function can reach,
// including a flow-insensitive alias pass so a local bound to shared state
// (`m := r.layoutByDisp`) classifies like the state it aliases.
type classifier struct {
	g       *callGraph
	n       *funcNode
	aliases map[*types.Var][]rootRef
}

func newClassifier(g *callGraph, n *funcNode) *classifier {
	c := &classifier{g: g, n: n, aliases: map[*types.Var][]rootRef{}}
	c.buildAliases()
	return c
}

// classifyVar places a variable relative to the function: receiver,
// parameter, package-level, captured from an enclosing function, or local.
func (c *classifier) classifyVar(v *types.Var) rootRef {
	if v == nil || v.IsField() {
		return rootRef{class: classFresh}
	}
	if c.n.recv != nil && v == c.n.recv {
		return rootRef{class: classRecv}
	}
	for i, p := range c.n.params {
		if p != nil && v == p {
			return rootRef{class: classParam, index: i}
		}
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return rootRef{class: classGlobal}
	}
	if c.n.lit != nil && (v.Pos() < c.n.lit.Pos() || v.Pos() > c.n.lit.End()) {
		return rootRef{class: classCaptured, v: v}
	}
	return rootRef{class: classFresh}
}

// sharedRootsOfVar expands a variable to the shared roots writes through it
// can reach: its own classification plus whatever a local may alias.
func (c *classifier) sharedRootsOfVar(v *types.Var) []rootRef {
	r := c.classifyVar(v)
	if r.class != classFresh {
		return []rootRef{r}
	}
	return c.aliases[v]
}

// exprIsLocal reports whether every variable the expression reads is local
// to the function (parameters count: reading a parameter's value is a
// function-local computation). Such expressions are safe slot indexes.
func (c *classifier) exprIsLocal(e ast.Expr) bool {
	local := true
	ast.Inspect(e, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok || !local {
			return local
		}
		v, ok := c.g.pass.Info.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		switch c.classifyVar(v).class {
		case classFresh:
			if len(c.aliases[v]) > 0 {
				local = false
			}
		case classParam:
		default:
			local = false
		}
		return local
	})
	return local
}

// isRefCarrying reports whether a value of type t can share a referent with
// another value after a plain copy: pointers, slices, maps, channels,
// interfaces, and aggregates containing any of those. Copying a scalar or a
// ref-free struct severs the connection — writes to the copy are local.
func isRefCarrying(t types.Type) bool {
	return refCarrying(t, 0)
}

func refCarrying(t types.Type, depth int) bool {
	if depth > 6 {
		return true // give up conservatively on deep nesting
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	case *types.Array:
		return refCarrying(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refCarrying(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// rootsOf returns the shared roots an expression can reach, or nil for
// purely local values.
//
// deref tracks Go's value semantics: it starts false and turns true the
// first time the chain passes a dereference (a selector through a pointer,
// a slice/map index, an explicit *). A write that never derefs mutates the
// variable itself — which is only shared when the variable is captured (by
// reference) or package-level; writes to a by-value parameter or receiver
// copy, like `cfg.Delivery = d` on a value Config, are local and yield no
// root. With deref set, the write lands in the referent, so the root
// variable's classification (and a local's aliases) apply.
//
// With forWrite set, an index into a non-map container selected by a
// function-local index is the sanctioned slot-ownership pattern
// (errs[i] = …, w.pre.digest[ord] = …) and yields no root.
func (c *classifier) rootsOf(e ast.Expr, forWrite, deref bool) []rootRef {
	info := c.g.pass.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		v, ok := info.ObjectOf(e).(*types.Var)
		if !ok {
			return nil
		}
		if deref {
			return c.sharedRootsOfVar(v)
		}
		// Touching the variable itself: by-value roots are copies.
		switch r := c.classifyVar(v); r.class {
		case classCaptured, classGlobal:
			return []rootRef{r}
		}
		return nil
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
				// Qualified reference pkg.Var: package-level state.
				if _, ok := info.ObjectOf(e.Sel).(*types.Var); ok {
					return []rootRef{{class: classGlobal}}
				}
				return nil
			}
		}
		d := deref
		if tv, ok := info.Types[e.X]; ok {
			if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
				d = true
			}
		}
		return c.rootsOf(e.X, forWrite, d)
	case *ast.IndexExpr:
		isMap := false
		d := deref
		if tv, ok := info.Types[e.X]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				isMap, d = true, true
			case *types.Slice, *types.Pointer:
				d = true
			}
		}
		if forWrite && !isMap && c.exprIsLocal(e.Index) {
			return nil // index-owned slot
		}
		return c.rootsOf(e.X, forWrite, d)
	case *ast.SliceExpr:
		return c.rootsOf(e.X, forWrite, true)
	case *ast.StarExpr:
		return c.rootsOf(e.X, forWrite, true)
	case *ast.UnaryExpr:
		return c.rootsOf(e.X, forWrite, deref)
	case *ast.TypeAssertExpr:
		return c.rootsOf(e.X, forWrite, true)
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 {
				return c.rootsOf(e.Args[0], forWrite, deref)
			}
			return nil
		}
		return c.callResultRoots(e, forWrite)
	}
	return nil
}

// callResultRoots classifies what a call's results may alias: fresh unless
// some resolved callee declares returnsShared, in which case the receiver
// and the ref-carrying arguments contribute their roots (a by-value
// argument was copied across the call; the result cannot alias the
// caller's copy).
func (c *classifier) callResultRoots(call *ast.CallExpr, forWrite bool) []rootRef {
	shared := false
	for _, t := range c.g.calleesOf(call) {
		if t.sum != nil && t.sum.returnsShared {
			shared = true
			break
		}
	}
	if !shared {
		return nil
	}
	info := c.g.pass.Info
	var roots []rootRef
	add := func(e ast.Expr) {
		if tv, ok := info.Types[e]; ok && !isRefCarrying(tv.Type) {
			return
		}
		roots = append(roots, c.rootsOf(e, forWrite, true)...)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		add(sel.X)
	}
	for _, a := range call.Args {
		add(a)
	}
	return roots
}

// buildAliases iterates the body's bindings until the local→shared-root map
// stabilizes. Nested literal bodies are excluded: their locals belong to
// their own nodes, and their captures translate at fold time.
func (c *classifier) buildAliases() {
	// aliasRoots evaluates what referent a bound value shares. A plain read
	// of a ref-carrying value (`s := m.lines`) yields a reference whose
	// referent survives any number of struct copies, so the leaf variable is
	// classified fully (deref=true). `&expr` instead points at the location
	// of expr, whose sharedness follows write semantics: `p := &t.f` on a
	// by-value t points into the local copy (deref=false at the leaf).
	aliasRoots := func(rhs ast.Expr) []rootRef {
		if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.AND {
			return c.rootsOf(rhs, true, false)
		}
		// Plain reads classify with forWrite off: the index-owned-slot
		// sanction covers writes into a slot, but reading a slot
		// (`layout := w.pool[n-1]`) still yields a reference into the
		// container's shared referent.
		return c.rootsOf(rhs, false, true)
	}
	bind := func(lhs ast.Expr, roots []rootRef) bool {
		v := lhsVar(c.g.pass, lhs)
		if v == nil || len(roots) == 0 {
			return false
		}
		// Only reference-carrying locals can alias shared state; copying a
		// scalar or ref-free struct severs the connection (`i := lo`,
		// `cfg := r.Cfg.Platform`).
		if !isRefCarrying(v.Type()) {
			return false
		}
		if c.classifyVar(v).class != classFresh {
			return false
		}
		changed := false
		for _, r := range roots {
			dup := false
			for _, have := range c.aliases[v] {
				if have == r {
					dup = true
					break
				}
			}
			if !dup {
				c.aliases[v] = append(c.aliases[v], r)
				changed = true
			}
		}
		return changed
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		walkOwnLevel(c.n.body, func(nd ast.Node) {
			switch nd := nd.(type) {
			case *ast.AssignStmt:
				if nd.Tok != token.ASSIGN && nd.Tok != token.DEFINE {
					return
				}
				if pairs := assignTargets(nd); pairs != nil {
					for _, p := range pairs {
						if bind(p[0], aliasRoots(p[1])) {
							changed = true
						}
					}
				} else if len(nd.Rhs) == 1 {
					roots := aliasRoots(nd.Rhs[0])
					for _, lhs := range nd.Lhs {
						if bind(lhs, roots) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				roots := c.rootsOf(nd.X, false, true)
				if nd.Key != nil && bind(nd.Key, roots) {
					changed = true
				}
				if nd.Value != nil && bind(nd.Value, roots) {
					changed = true
				}
			case *ast.ValueSpec:
				for i, name := range nd.Names {
					if i < len(nd.Values) && bind(name, aliasRoots(nd.Values[i])) {
						changed = true
					}
				}
			}
		})
		if !changed {
			break
		}
	}
}

// walkOwnLevel visits every node of the body except the interiors of nested
// function literals.
func walkOwnLevel(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		if nd != nil {
			visit(nd)
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Summary computation

// summarizeSCC computes the summaries of one strongly connected component.
// Single functions take one pass (their callees, being in earlier SCCs, are
// done); recursive cycles iterate until the effect signatures stop moving.
func summarizeSCC(g *callGraph, mod *moduleIndex, scc []*funcNode) {
	for _, n := range scc {
		n.sum = newSummary(n)
	}
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, n := range scc {
			old := n.sum.signature()
			n.sum = computeSummary(g, mod, n)
			if n.sum.signature() != old {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

const chainDetailLimit = 240

func chainDetail(callee *funcNode, detail string) string {
	d := "calls " + callee.name + ", which " + detail
	if len(d) > chainDetailLimit {
		d = d[:chainDetailLimit] + "…"
	}
	return d
}

// record stores an effect against a root, keeping the first observation.
func (s *summary) record(write bool, root rootRef, e *effect) {
	slot := func(p **effect) {
		if *p == nil {
			*p = e
		}
	}
	switch root.class {
	case classGlobal:
		if write {
			slot(&s.writesGlobal)
		} else {
			slot(&s.rangesGlobal)
		}
	case classRecv:
		if write {
			slot(&s.writesRecv)
		} else {
			slot(&s.rangesRecv)
		}
	case classParam:
		if root.index < 0 || root.index >= len(s.writesParam) {
			return
		}
		if write {
			slot(&s.writesParam[root.index])
		} else {
			slot(&s.rangesParam[root.index])
		}
	case classCaptured:
		m := s.rangesCaptured
		if write {
			m = s.writesCaptured
		}
		if _, ok := m[root.v]; !ok {
			m[root.v] = e
		}
	}
}

// computeSummary derives one function's summary from its body and the
// current summaries of its callees.
func computeSummary(g *callGraph, mod *moduleIndex, n *funcNode) *summary {
	s := newSummary(n)
	cls := newClassifier(g, n)
	pass := g.pass
	s.guarded = guardedBody(pass, n.body)

	recordAll := func(write bool, roots []rootRef, e *effect) {
		for _, r := range roots {
			s.record(write, r, e)
		}
	}

	walkOwnLevel(n.body, func(nd ast.Node) {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			// `:=` introduces fresh bindings — a rebinding, not a mutation of
			// shared state; aliases it creates are handled by buildAliases.
			if !s.guarded && nd.Tok != token.DEFINE {
				for _, lhs := range nd.Lhs {
					roots := cls.rootsOf(lhs, true, false)
					recordAll(true, roots, &effect{pos: lhs.Pos(), detail: "writes " + pass.ExprString(lhs)})
				}
			}
		case *ast.IncDecStmt:
			if !s.guarded {
				roots := cls.rootsOf(nd.X, true, false)
				recordAll(true, roots, &effect{pos: nd.Pos(), detail: "writes " + pass.ExprString(nd.X)})
			}
		case *ast.RangeStmt:
			if s.guarded {
				return
			}
			if tv, ok := pass.Info.Types[nd.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					// Map contents are shared through any struct value copy,
					// so the leaf is classified fully (deref=true).
					roots := cls.rootsOf(nd.X, true, true)
					recordAll(false, roots, &effect{pos: nd.Pos(), detail: "ranges over map " + pass.ExprString(nd.X)})
				}
			}
		case *ast.ReturnStmt:
			for _, res := range nd.Results {
				// Only a ref-carrying result can hand the caller a handle to
				// shared state; `return r.frames` does, `return r.count` can't.
				if tv, ok := pass.Info.Types[res]; ok && !isRefCarrying(tv.Type) {
					continue
				}
				if len(cls.rootsOf(res, false, true)) > 0 {
					s.returnsShared = true
				}
			}
		case *ast.CallExpr:
			summarizeCall(g, mod, n, cls, s, nd)
		}
	})
	computeUnitFacts(g, n, cls, s)
	return s
}

// summarizeCall folds one call site into the caller's summary: the direct
// wall-clock/rand denylist, the resolved callees' effects translated
// through the call's receiver and arguments, and any function-literal
// arguments (which may run at any time on the caller's behalf).
func summarizeCall(g *callGraph, mod *moduleIndex, n *funcNode, cls *classifier, s *summary, call *ast.CallExpr) {
	pass := g.pass
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil {
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" && s.timeRand == nil {
					s.timeRand = &effect{pos: call.Pos(), detail: "calls time.Now"}
				}
			case "math/rand", "math/rand/v2":
				if !globalRandAllowed[fn.Name()] && s.timeRand == nil {
					s.timeRand = &effect{pos: call.Pos(), detail: "calls rand." + fn.Name() + " (process-global source)"}
				}
			}
		}
	}

	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvExpr = sel.X
	}
	for _, callee := range g.calleesOf(call) {
		foldCallee(cls, s, call, callee, recvExpr)
	}
	// A literal passed as an argument runs on the caller's behalf at some
	// point (a pool worker, a sort comparator); its effects are the
	// caller's, with captured variables translated into the caller's frame.
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			if ln := g.byLit[lit]; ln != nil && ln.sum != nil {
				foldCaptured(cls, s, call, ln)
				foldAbsolute(s, call, ln)
			}
		}
	}
	recordPoolObligations(g, n, cls, s, call)
}

// foldCallee translates one resolved callee's summary through the call.
func foldCallee(cls *classifier, s *summary, call *ast.CallExpr, callee *funcNode, recvExpr ast.Expr) {
	cs := callee.sum
	if cs == nil {
		return // forward interface dispatch into a later package
	}
	if !s.guarded {
		foldAbsolute(s, call, callee)
		foldCaptured(cls, s, call, callee)
		if cs.writesRecv != nil && recvExpr != nil {
			e := &effect{pos: call.Pos(), detail: chainDetail(callee, cs.writesRecv.detail)}
			for _, r := range cls.rootsOf(recvExpr, true, true) {
				s.record(true, r, e)
			}
		}
		if cs.rangesRecv != nil && recvExpr != nil {
			e := &effect{pos: call.Pos(), detail: chainDetail(callee, cs.rangesRecv.detail)}
			for _, r := range cls.rootsOf(recvExpr, true, true) {
				s.record(false, r, e)
			}
		}
		for k, we := range cs.writesParam {
			if we == nil {
				continue
			}
			for _, arg := range argsForParam(call, callee, k) {
				e := &effect{pos: call.Pos(), detail: chainDetail(callee, we.detail)}
				for _, r := range cls.rootsOf(arg, true, true) {
					s.record(true, r, e)
				}
			}
		}
		for k, re := range cs.rangesParam {
			if re == nil {
				continue
			}
			for _, arg := range argsForParam(call, callee, k) {
				e := &effect{pos: call.Pos(), detail: chainDetail(callee, re.detail)}
				for _, r := range cls.rootsOf(arg, true, true) {
					s.record(false, r, e)
				}
			}
		}
	}
}

// foldAbsolute copies the callee effects that need no translation: the wall
// clock and package-level state are shared from every vantage point.
func foldAbsolute(s *summary, call *ast.CallExpr, callee *funcNode) {
	cs := callee.sum
	if cs == nil {
		return
	}
	if cs.timeRand != nil && s.timeRand == nil {
		s.timeRand = &effect{pos: call.Pos(), detail: chainDetail(callee, cs.timeRand.detail)}
	}
	if s.guarded {
		return
	}
	if cs.writesGlobal != nil {
		s.record(true, rootRef{class: classGlobal}, &effect{pos: call.Pos(), detail: chainDetail(callee, cs.writesGlobal.detail)})
	}
	if cs.rangesGlobal != nil {
		s.record(false, rootRef{class: classGlobal}, &effect{pos: call.Pos(), detail: chainDetail(callee, cs.rangesGlobal.detail)})
	}
}

// foldCaptured translates the callee's captured-variable effects into the
// caller's frame: a variable the callee captured is, from here, a local
// (drop, unless it aliases shared state), a parameter, the receiver, a
// global, or something this function itself captured.
func foldCaptured(cls *classifier, s *summary, call *ast.CallExpr, callee *funcNode) {
	cs := callee.sum
	if cs == nil || s.guarded {
		return
	}
	for v, we := range cs.writesCaptured {
		e := &effect{pos: call.Pos(), detail: chainDetail(callee, we.detail)}
		for _, r := range cls.sharedRootsOfVar(v) {
			s.record(true, r, e)
		}
	}
	for v, re := range cs.rangesCaptured {
		e := &effect{pos: call.Pos(), detail: chainDetail(callee, re.detail)}
		for _, r := range cls.sharedRootsOfVar(v) {
			s.record(false, r, e)
		}
	}
}

// argsForParam returns the call arguments feeding parameter index k of the
// callee (several for a variadic tail).
func argsForParam(call *ast.CallExpr, callee *funcNode, k int) []ast.Expr {
	np := len(callee.params)
	if np == 0 {
		return nil
	}
	variadic := callee.sig != nil && callee.sig.Variadic()
	var out []ast.Expr
	for i, arg := range call.Args {
		pi := i
		if pi >= np {
			if !variadic {
				continue
			}
			pi = np - 1
		}
		if pi == k {
			out = append(out, arg)
		}
	}
	return out
}

// recordPoolObligations marks parameters whose values end up running as par
// workers, so the purity obligation chases through forwarding layers
// (experiments.runIsolated → par.Pool.Map → the ForShards worker literal).
func recordPoolObligations(g *callGraph, n *funcNode, cls *classifier, s *summary, call *ast.CallExpr) {
	paramIndexOf := func(e ast.Expr) int {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		v, _ := g.pass.Info.ObjectOf(id).(*types.Var)
		if v == nil {
			return -1
		}
		r := cls.classifyVar(v)
		if r.class != classParam {
			return -1
		}
		return r.index
	}
	mark := func(i int) {
		if i >= 0 && i < len(s.poolParam) {
			s.poolParam[i] = true
		}
	}
	if wi, ok := poolWorkerArg(g.pass, call); ok && wi < len(call.Args) {
		worker := call.Args[wi]
		mark(paramIndexOf(worker))
		// A worker literal that calls one of this function's func-typed
		// parameters transfers the obligation to that parameter too.
		if lit, ok := ast.Unparen(worker).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(nd ast.Node) bool {
				inner, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				mark(paramIndexOf(inner.Fun))
				return true
			})
		}
	}
	for _, callee := range g.calleesOf(call) {
		if callee.sum == nil {
			continue
		}
		for k, isPool := range callee.sum.poolParam {
			if !isPool {
				continue
			}
			for _, arg := range argsForParam(call, callee, k) {
				mark(paramIndexOf(arg))
			}
		}
	}
}

// guardedBody reports whether the body calls a Lock/RLock method outside
// nested literals (the same sanction the determinism analyzer grants
// goroutine bodies: a declared synchronization story).
func guardedBody(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	walkOwnLevel(body, func(nd ast.Node) {
		call, ok := nd.(*ast.CallExpr)
		if !ok || found {
			return
		}
		if fn := calleeFunc(pass, call); fn != nil {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
				(fn.Name() == "Lock" || fn.Name() == "RLock") {
				found = true
			}
		}
	})
	return found
}

// ---------------------------------------------------------------------------
// Unit and ledger facts

// computeUnitFacts derives result/parameter dimensions and accumulator-sink
// parameters by running the unitflow dimension fixpoint over the body with
// the callee summaries already in reach (bottom-up SCC order).
func computeUnitFacts(g *callGraph, n *funcNode, cls *classifier, s *summary) {
	if n.sig == nil {
		return
	}
	u := &unitflowRun{pass: g.pass, graph: g}
	cfg := buildCFG(g.pass, n.body)
	in := forwardFixpoint(cfg, u.transfer)

	nres := n.sig.Results().Len()
	resConflict := make([]bool, nres)
	paramConflict := make([]bool, len(n.params))

	joinDim := func(dst []string, conflict []bool, i int, d string) {
		if i < 0 || i >= len(dst) || conflict[i] || d == "" {
			return
		}
		switch dst[i] {
		case "":
			dst[i] = d
		case d:
		default:
			dst[i] = ""
			conflict[i] = true
		}
	}
	paramIndexOf := func(e ast.Expr) int {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		v, _ := g.pass.Info.ObjectOf(id).(*types.Var)
		if v == nil {
			return -1
		}
		if r := cls.classifyVar(v); r.class == classParam {
			// Only plain-typed parameters need inference; a declared unit
			// type is already authoritative everywhere.
			if typeDim(v.Type()) == "" {
				return r.index
			}
		}
		return -1
	}
	constrain := func(env factEnv, x, y ast.Expr) {
		if i := paramIndexOf(x); i >= 0 {
			joinDim(s.paramDims, paramConflict, i, u.dimOf(env, y))
		}
	}

	for _, b := range cfg.blocks {
		env := factEnv{}
		if in[b.index] != nil {
			env = in[b.index].clone()
		}
		for _, nd := range b.nodes {
			root := nd
			if rng, ok := nd.(*ast.RangeStmt); ok {
				root = rng.X
			}
			ast.Inspect(root, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false
				case *ast.BinaryExpr:
					if additiveOps[x.Op] {
						constrain(env, x.X, x.Y)
						constrain(env, x.Y, x.X)
					}
				case *ast.AssignStmt:
					if (x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN) && len(x.Lhs) == 1 && len(x.Rhs) == 1 {
						constrain(env, x.Rhs[0], x.Lhs[0])
						// Energy accumulated off a parameter is a ledger
						// sink for that parameter.
						if i := accParamIndex(g, cls, x.Rhs[0]); i >= 0 && isEnergyDim(u.dimOf(env, x.Lhs[0])) && x.Tok == token.ADD_ASSIGN {
							if i < len(s.accParam) {
								s.accParam[i] = true
							}
						}
					}
				case *ast.CallExpr:
					for _, callee := range g.calleesOf(x) {
						if callee.sum == nil {
							continue
						}
						for k := range callee.params {
							var pd string
							var acc bool
							if k < len(callee.sum.paramDims) {
								pd = callee.sum.paramDims[k]
							}
							if k < len(callee.sum.accParam) {
								acc = callee.sum.accParam[k]
							}
							if pd == "" && !acc {
								continue
							}
							for _, arg := range argsForParam(x, callee, k) {
								if i := paramIndexOf(arg); i >= 0 {
									joinDim(s.paramDims, paramConflict, i, pd)
									if acc && i < len(s.accParam) {
										s.accParam[i] = true
									}
								}
							}
						}
					}
				case *ast.ReturnStmt:
					if nres == 0 {
						return true
					}
					if len(x.Results) != nres {
						for i := range resConflict {
							resConflict[i] = true
							s.resultDims[i] = ""
						}
						return true
					}
					for i, res := range x.Results {
						joinDim(s.resultDims, resConflict, i, u.dimOf(env, res))
					}
				}
				return true
			})
			env = u.transfer(env, nd)
		}
	}
	// Declared unit result types are authoritative regardless of body flow.
	for i := 0; i < nres; i++ {
		if d := typeDim(n.sig.Results().At(i).Type()); d != "" {
			s.resultDims[i] = d
		}
	}
}

// accParamIndex resolves an expression to a plain parameter read (the shape
// `lhs += p`), or -1.
func accParamIndex(g *callGraph, cls *classifier, e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	v, _ := g.pass.Info.ObjectOf(id).(*types.Var)
	if v == nil {
		return -1
	}
	if r := cls.classifyVar(v); r.class == classParam {
		return r.index
	}
	return -1
}
