package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
	"sync"
)

// This file computes per-function effect summaries bottom-up over the
// call graph's SCCs: the interprocedural tier the lostrequest,
// remoteconflict, and lockorder analyzers consume. A summary records what
// one function provably does to the RMA objects its caller hands it —
// constant remote byte-ranges on target-memory parameters, completion
// calls, requests returned fresh, and annotated locks acquired.
//
// The precision discipline mirrors the analyzers themselves: "definite"
// effects (remote accesses) come only from the body's top-level statement
// list, so splicing them into a caller never asserts something that might
// not happen. Conditional or unanalyzable behavior degrades the affected
// parameter to unknown, which makes the caller forget its state instead of
// reporting on it. "May" effects (completes,
// legalizes, acquires) go the other way — they are unioned over the whole
// body including nested blocks and closures — because their consumers
// only ever use them to stay silent (a helper that may complete is a
// completion point; a helper that may legalize clears conflict state).

// remoteAcc is one constant-foldable remote access.
type remoteAcc struct {
	lo, hi int64 // byte interval [lo,hi) on the target exposure
	write  bool
	atomic bool
	op     string // call name, for messages
}

// remoteEvent is one entry of a function's definite remote-effect
// sequence: either an access through a target-memory parameter or a
// legalizing barrier (Order/Complete/...), in top-level order.
type remoteEvent struct {
	barrier bool
	param   int // target-memory parameter index, for accesses
	acc     remoteAcc
}

// funcSummary is the effect summary of one declared function.
type funcSummary struct {
	fn *types.Func

	// completes: the function may reach a Complete/
	// CompleteCollective (directly or transitively). Calls to it count as
	// completion points for lostrequest.
	completes bool

	// legalizes: the function may reach an Order/Complete-style barrier
	// or an unanalyzable call; remoteconflict treats a call to it as
	// clearing all conflict state.
	legalizes bool

	// returnsRequest is the result index at which the function returns a
	// fresh, nonblocking, un-awaited request (or -1). Discarding that
	// result is a lost request exactly like discarding a Session.Put's.
	returnsRequest int

	// remoteEvents is the definite, ordered remote-effect sequence over
	// target-memory parameters; remoteUnknown marks parameters with
	// unmodelable remote effects (the caller clears their state).
	remoteEvents  []remoteEvent
	remoteUnknown map[int]bool

	// acquires is the set of annotated locks (see lockRanks) the function
	// may take, directly or transitively.
	acquires map[*types.Var]bool
}

// pkgSummaries is the cached interprocedural view of one package.
type pkgSummaries struct {
	graph *callGraph
	funcs map[*types.Func]*funcSummary
	// lockRanks and lockNames hold the //rmalint:lockrank annotations:
	// mutex struct fields mapped to their numeric rank and display name.
	lockRanks map[*types.Var]int
	lockNames map[*types.Var]string
}

// interprocDisabled turns off summary consumption; the pin tests use it
// to prove which findings need the interprocedural tier.
var interprocDisabled bool

var (
	summaryMu    sync.Mutex
	summaryCache = map[*types.Package]*pkgSummaries{}
)

// summariesFor returns the package's summaries, computing and caching
// them on first use — every analyzer of every rmalint run shares one
// computation per package, which is what keeps the interprocedural tier
// cheap enough for the CI wall-clock budget.
func summariesFor(pass *Pass) *pkgSummaries {
	summaryMu.Lock()
	defer summaryMu.Unlock()
	if s, ok := summaryCache[pass.Pkg]; ok {
		return s
	}
	pkg := &Package{Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, Info: pass.TypesInfo}
	s := computeSummaries(pkg)
	summaryCache[pass.Pkg] = s
	return s
}

// summaryOf resolves the summary a call site may splice in: the callee
// must be a declared same-package function. Returns nil when the
// interprocedural tier is disabled or the callee is unknown.
func (s *pkgSummaries) summaryOf(info *types.Info, call *ast.CallExpr) *funcSummary {
	return s.summaryOfFunc(callee(info, call))
}

// completers are the calls that guarantee completion of previously-issued
// operations without holding the request.
var completers = map[string]bool{
	rmaPath + ".Session.Complete":           true,
	rmaPath + ".Session.CompleteCollective": true,
	corePath + ".Engine.Complete":           true,
	corePath + ".Engine.CompleteCollective": true,
}

// legalizers are the calls remoteconflict accepts as separating two
// overlapping accesses: an ordering point or a completion. This is the
// static mirror of the runtime checker's epoch-advance set.
var legalizers = map[string]bool{
	rmaPath + ".Session.Order":              true,
	rmaPath + ".Session.Complete":           true,
	rmaPath + ".Session.CompleteCollective": true,
	corePath + ".Engine.Order":              true,
	corePath + ".Engine.OrderCollective":    true,
	corePath + ".Engine.Complete":           true,
	corePath + ".Engine.CompleteCollective": true,
}

// computeSummaries builds the package's call graph, collects lock
// annotations, and computes every function's summary bottom-up.
func computeSummaries(pkg *Package) *pkgSummaries {
	s := &pkgSummaries{
		graph: buildCallGraph(pkg),
		funcs: map[*types.Func]*funcSummary{},
	}
	s.lockRanks, s.lockNames = collectLockRanks(pkg)

	for _, n := range s.graph.order {
		s.funcs[n.fn] = newSummary(n.fn)
	}
	// May-effects (completes, legalizes, acquires) need a fixpoint within
	// recursive components; iterating the bottom-up order until nothing
	// changes is exact and terminates (the per-function lattice is tiny).
	for changed := true; changed; {
		changed = false
		for _, n := range s.graph.order {
			if s.computeMayEffects(pkg, n) {
				changed = true
			}
		}
	}
	// Definite effects are computed once, bottom-up; recursion degrades
	// to unknown via graph.recursive.
	for _, n := range s.graph.order {
		s.computeDefiniteEffects(pkg, n)
	}
	return s
}

func newSummary(fn *types.Func) *funcSummary {
	return &funcSummary{
		fn:             fn,
		returnsRequest: -1,
		remoteUnknown:  map[int]bool{},
		acquires:       map[*types.Var]bool{},
	}
}

// computeMayEffects unions completes/legalizes/acquires over the whole
// body and the callees' summaries. Returns whether anything changed.
func (s *pkgSummaries) computeMayEffects(pkg *Package, n *cgNode) bool {
	sum := s.funcs[n.fn]
	before := [2]bool{sum.completes, sum.legalizes}
	nAcq := len(sum.acquires)

	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		// A goroutine runs concurrently: its effects do not happen on the
		// caller's control path (its lock acquisitions are not nested
		// inside the caller's, and a completion it performs has no
		// ordering with the caller's statements).
		if _, ok := node.(*ast.GoStmt); ok {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(pkg.Info, call)
		if fn == nil {
			// A call through a function value or interface could do
			// anything, including complete or order: treat it as a
			// may-legalize point (never as a definite effect).
			sum.legalizes = true
			return true
		}
		key := funcKey(fn)
		if completers[key] {
			sum.completes = true
		}
		if legalizers[key] {
			sum.legalizes = true
		}
		if v := lockFieldOf(pkg.Info, call, s.lockRanks); v != nil && fn.Name() == "Lock" {
			sum.acquires[v] = true
		}
		if callee := s.funcs[fn]; callee != nil {
			sum.completes = sum.completes || callee.completes
			sum.legalizes = sum.legalizes || callee.legalizes
			for v := range callee.acquires {
				sum.acquires[v] = true
			}
		}
		return true
	})
	return sum.completes != before[0] || sum.legalizes != before[1] || len(sum.acquires) != nAcq
}

// computeDefiniteEffects fills in the remote and request-return parts of
// the summary from the body's top-level statement list. Everything here
// must be provable: a parameter used in a way the walk does not recognize
// degrades to unknown.
func (s *pkgSummaries) computeDefiniteEffects(pkg *Package, n *cgNode) {
	sum := s.funcs[n.fn]
	decl := n.decl
	info := pkg.Info

	// Target-memory parameter objects by index.
	tmParams := map[types.Object]int{}
	if decl.Type.Params != nil {
		idx := 0
		for _, field := range decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isTargetMem(obj.Type()) {
					tmParams[obj] = idx
				}
				idx++
			}
		}
	}

	// Recursion defeats the bottom-up order; a return statement buried in
	// a nested block means the top-level suffix may never run. Either way
	// the definite sequence would overclaim: degrade to unknown.
	if s.graph.recursive(n.fn) || hasNestedReturn(decl.Body) {
		for _, i := range tmParams {
			sum.remoteUnknown[i] = true
		}
	} else {
		s.walkDefinite(pkg, sum, decl, tmParams)
	}

	sum.returnsRequest = s.requestResultIndex(pkg, decl, sum)
}

// callEffects is what one recognized call contributes to a summary (or,
// at analyzer level, to the caller's tracked state): remote events keyed
// by the caller-side object the effect lands on, plus the objects whose
// state becomes unknown.
type callEffects struct {
	events     []tmEvent
	tmUnknown  map[types.Object]bool
	recognized map[types.Object]int // identifier uses this call accounts for
}

// tmEvent is a remoteEvent re-bound to a caller-side object.
type tmEvent struct {
	barrier bool
	obj     types.Object
	acc     remoteAcc
}

func newCallEffects() *callEffects {
	return &callEffects{
		tmUnknown:  map[types.Object]bool{},
		recognized: map[types.Object]int{},
	}
}

// effectsOfCall classifies one direct call against the tracked
// target-memory objects; trackTM decides which objects the caller cares
// about. Returns nil when the call is irrelevant to them.
func (s *pkgSummaries) effectsOfCall(info *types.Info, call *ast.CallExpr, trackTM func(types.Object) bool) *callEffects {
	fn := callee(info, call)
	key := funcKey(fn)
	eff := newCallEffects()

	// Legalizing barrier: separates every tracked target-memory object.
	if legalizers[key] {
		eff.events = append(eff.events, tmEvent{barrier: true})
		return eff
	}

	// Remote access through a tracked target-memory object.
	if shape, ok := accessShapes[key]; ok {
		if shape.tmIdx >= len(call.Args) {
			return nil
		}
		obj := objectOf(info, call.Args[shape.tmIdx])
		if obj == nil || !trackTM(obj) {
			return nil
		}
		eff.recognized[obj]++
		if acc, ok := foldAccess(info, fn.Name(), call, shape); ok {
			eff.events = append(eff.events, tmEvent{obj: obj, acc: acc})
		} else {
			// The access happens but its interval is unknowable: the
			// object's conflict state is no longer trustworthy.
			eff.tmUnknown[obj] = true
		}
		return eff
	}

	// Same-package summarized call: splice the callee's definite effects,
	// re-binding its parameters to our argument objects.
	if callee := s.summaryOfFunc(fn); callee != nil {
		touched := false
		for ai, arg := range call.Args {
			obj := objectOf(info, arg)
			if obj == nil || !trackTM(obj) || !isTargetMem(obj.Type()) {
				continue
			}
			eff.recognized[obj]++
			touched = true
			if callee.remoteUnknown[ai] {
				eff.tmUnknown[obj] = true
				continue
			}
			for _, ev := range callee.remoteEvents {
				if !ev.barrier && ev.param == ai {
					eff.events = append(eff.events, tmEvent{obj: obj, acc: ev.acc})
				}
			}
		}
		// A callee that may legalize acts as a barrier for everything the
		// caller has outstanding — even when no tracked object is passed.
		if callee.legalizes {
			eff.events = append(eff.events, tmEvent{barrier: true})
			touched = true
		}
		if !touched {
			return nil
		}
		return eff
	}

	// Unknown call: every tracked object it receives escapes.
	for _, arg := range call.Args {
		if obj := objectOf(info, arg); obj != nil && trackTM(obj) && isTargetMem(obj.Type()) {
			eff.recognized[obj]++
			eff.tmUnknown[obj] = true
		}
	}
	// An unresolvable call (function value, interface method) could
	// legalize through captured state.
	if fn == nil {
		eff.events = append(eff.events, tmEvent{barrier: true})
	}
	if len(eff.recognized) == 0 && len(eff.events) == 0 {
		return nil
	}
	return eff
}

// summaryOfFunc is summaryOf for an already-resolved callee.
func (s *pkgSummaries) summaryOfFunc(fn *types.Func) *funcSummary {
	if s == nil || fn == nil || interprocDisabled {
		return nil
	}
	return s.funcs[fn]
}

// walkDefinite runs the top-level statement list of decl and records the
// definite remote-effect sequence onto the summary.
func (s *pkgSummaries) walkDefinite(pkg *Package, sum *funcSummary, decl *ast.FuncDecl, tmParams map[types.Object]int) {
	info := pkg.Info

	recognized := map[types.Object]int{}
	var deferred []*callEffects
	trackTM := func(obj types.Object) bool {
		_, ok := tmParams[obj]
		return ok
	}

	apply := func(eff *callEffects) {
		for obj, c := range eff.recognized {
			recognized[obj] += c
		}
		for _, ev := range eff.events {
			if ev.barrier {
				sum.remoteEvents = append(sum.remoteEvents, remoteEvent{barrier: true})
			} else if i, ok := tmParams[ev.obj]; ok {
				sum.remoteEvents = append(sum.remoteEvents, remoteEvent{param: i, acc: ev.acc})
			}
		}
		for obj := range eff.tmUnknown {
			if i, ok := tmParams[obj]; ok {
				sum.remoteUnknown[i] = true
			}
		}
	}

	for _, stmt := range decl.Body.List {
		if ds, ok := stmt.(*ast.DeferStmt); ok {
			if eff := s.effectsOfCall(info, ds.Call, trackTM); eff != nil {
				deferred = append(deferred, eff)
			}
			continue
		}
		for _, call := range directCalls(stmt) {
			if eff := s.effectsOfCall(info, call, trackTM); eff != nil {
				apply(eff)
			}
		}
	}

	// Deferred effects run at function exit in LIFO order.
	for i := len(deferred) - 1; i >= 0; i-- {
		apply(deferred[i])
	}

	// Escape analysis: any identifier use the walk did not recognize
	// makes that object's effects unprovable.
	for obj, i := range tmParams {
		if countUses(info, decl.Body, obj) > recognized[obj] {
			sum.remoteUnknown[i] = true
		}
	}
}

// accessShape describes where one call's target interval sits in its
// argument list: extent = count(arg countIdx) * sizeof(dt at dtIdx), or a
// fixed 8 bytes for RMWs (countIdx < 0).
type accessShape struct {
	tmIdx, dispIdx   int
	countIdx, dtIdx  int
	layoutOverridble bool // WithTargetLayout changes the target extent
}

var accessShapes = map[string]accessShape{
	rmaPath + ".Session.Put":            {tmIdx: 3, dispIdx: 4, countIdx: 1, dtIdx: 2, layoutOverridble: true},
	rmaPath + ".Session.PutNotify":      {tmIdx: 3, dispIdx: 4, countIdx: 1, dtIdx: 2, layoutOverridble: true},
	rmaPath + ".Session.Get":            {tmIdx: 3, dispIdx: 4, countIdx: 1, dtIdx: 2, layoutOverridble: true},
	rmaPath + ".Session.Accumulate":     {tmIdx: 4, dispIdx: 5, countIdx: 2, dtIdx: 3, layoutOverridble: true},
	rmaPath + ".Session.AccumulateAxpy": {tmIdx: 4, dispIdx: 5, countIdx: 2, dtIdx: 3, layoutOverridble: true},
	rmaPath + ".Session.FetchAdd":       {tmIdx: 0, dispIdx: 1, countIdx: -1},
	rmaPath + ".Session.CompareSwap":    {tmIdx: 0, dispIdx: 1, countIdx: -1},
	corePath + ".Engine.Put":            {tmIdx: 3, dispIdx: 4, countIdx: 5, dtIdx: 6},
	corePath + ".Engine.Get":            {tmIdx: 3, dispIdx: 4, countIdx: 5, dtIdx: 6},
	corePath + ".Engine.FetchAdd":       {tmIdx: 0, dispIdx: 1, countIdx: -1},
	corePath + ".Engine.CompareSwap":    {tmIdx: 0, dispIdx: 1, countIdx: -1},
}

// foldAccess constant-folds one remote access to its byte interval and
// classification. ok=false when displacement, count, or extent do not
// fold (a WithTargetLayout override also defeats folding).
func foldAccess(info *types.Info, callName string, call *ast.CallExpr, shape accessShape) (remoteAcc, bool) {
	acc := remoteAcc{op: callName}
	if shape.tmIdx >= len(call.Args) || shape.dispIdx >= len(call.Args) {
		return acc, false
	}
	disp, ok := intConst(info, call.Args[shape.dispIdx])
	if !ok {
		return acc, false
	}
	extent := int64(8) // RMW word
	if shape.countIdx >= 0 {
		if shape.layoutOverridble {
			for _, opt := range optionCalls(info, call.Args) {
				if callee(info, opt).Name() == "WithTargetLayout" {
					return acc, false
				}
			}
		}
		if shape.countIdx >= len(call.Args) || shape.dtIdx >= len(call.Args) {
			return acc, false
		}
		count, ok := intConst(info, call.Args[shape.countIdx])
		if !ok {
			return acc, false
		}
		elem, ok := dtypeExtent(info, call.Args[shape.dtIdx])
		if !ok {
			return acc, false
		}
		extent = count * elem
	}
	acc.lo, acc.hi = disp, disp+extent
	acc.write = callName != "Get"
	acc.atomic = shape.countIdx < 0 || callCarriesAtomic(info, call)
	return acc, true
}

// callCarriesAtomic reports whether the call's options or attrs give the
// access atomic semantics: WithAtomic/WithStrictDebug, or an engine attrs
// argument with the AttrAtomic bit (constant-folded or named).
func callCarriesAtomic(info *types.Info, call *ast.CallExpr) bool {
	for _, opt := range optionCalls(info, call.Args) {
		name := callee(info, opt).Name()
		if name == "WithAtomic" || name == "WithStrictDebug" {
			return true
		}
	}
	for _, arg := range call.Args {
		if attrHasBit(info, arg, "AttrAtomic") {
			return true
		}
	}
	for _, arg := range call.Args {
		if mentionsCoreName(info, arg, "AttrAtomic") || mentionsCoreName(info, arg, "StrictDebugAttrs") {
			return true
		}
	}
	return false
}

// requestResultIndex decides whether the function returns a fresh
// nonblocking request its caller becomes responsible for: some return
// statement returns a request produced in this function (directly, or via
// a variable whose only uses are the producing assignment and returns),
// and the function itself never completes.
func (s *pkgSummaries) requestResultIndex(pkg *Package, decl *ast.FuncDecl, sum *funcSummary) int {
	if sum.completes {
		return -1
	}
	info := pkg.Info
	result := -1
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns are its own
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		// return producerCall(...): the request slot carries through.
		if len(ret.Results) == 1 {
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				if idx := s.producedRequestIndex(info, call); idx >= 0 {
					result = idx
				}
				return true
			}
		}
		for i, res := range ret.Results {
			id, ok := ast.Unparen(res).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			if obj == nil || !isRequestPtr(obj.Type()) {
				continue
			}
			if s.requestOnlyProducedAndReturned(pkg, decl.Body, obj) {
				result = i
			}
		}
		return true
	})
	return result
}

// producedRequestIndex reports the request result index of a producing
// call — the builtin nonblocking operations, or a same-package function
// already summarized as returning a fresh request — or -1.
func (s *pkgSummaries) producedRequestIndex(info *types.Info, call *ast.CallExpr) int {
	fn := callee(info, call)
	key := funcKey(fn)
	if requestProducers[key] {
		if isBlockingCall(info, call) {
			return -1
		}
		return 0
	}
	if sub := s.summaryOfFunc(fn); sub != nil && sub.returnsRequest >= 0 {
		return sub.returnsRequest
	}
	return -1
}

// requestOnlyProducedAndReturned reports whether obj is a request
// variable whose only appearances are its producing assignment(s) and
// return statements — nothing awaited it, registered a callback, or
// stored it elsewhere.
func (s *pkgSummaries) requestOnlyProducedAndReturned(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	info := pkg.Info
	produced := false
	accounted := 0

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			idx := s.producedRequestIndex(info, call)
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || (info.Defs[id] != obj && info.Uses[id] != obj) {
					continue
				}
				if idx >= 0 && i == idx {
					produced = true
					if info.Uses[id] == obj {
						accounted++ // reassignment via `=` counts as a use
					}
				} else {
					accounted-- // assigned from something unvouched: poison
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok && info.Uses[id] == obj {
					accounted++
				}
			}
		}
		return true
	})
	return produced && countUses(info, body, obj) == accounted
}

// hasNestedReturn reports whether any return statement sits below the
// body's top-level statement list (inside an if, loop, switch — but not
// a closure, whose returns are its own).
func hasNestedReturn(body *ast.BlockStmt) bool {
	nested := false
	for _, stmt := range body.List {
		if _, ok := stmt.(*ast.ReturnStmt); ok {
			continue
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if _, ok := n.(*ast.ReturnStmt); ok {
				nested = true
			}
			return !nested
		})
		if nested {
			return true
		}
	}
	return false
}

// countUses counts identifier uses of obj in body (Uses only; the
// defining identifier is in Defs and not counted).
func countUses(info *types.Info, body *ast.BlockStmt, obj types.Object) int {
	n := 0
	ast.Inspect(body, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok && info.Uses[id] == obj {
			n++
		}
		return true
	})
	return n
}

// isTargetMem reports whether t is core.TargetMem (rma.TargetMem is an
// alias of it, so both facades resolve here).
func isTargetMem(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == corePath && obj.Name() == "TargetMem"
}

// isRequestPtr reports whether t is *core.Request (rma.Request aliases
// core.Request).
func isRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == corePath && obj.Name() == "Request"
}

// collectLockRanks scans struct declarations for mutex fields annotated
// with a //rmalint:lockrank N comment (trailing on the field's line or in
// its doc comment). The rank defines the package's lock hierarchy: a
// lower rank must be acquired before a higher one, never after.
func collectLockRanks(pkg *Package) (map[*types.Var]int, map[*types.Var]string) {
	ranks := map[*types.Var]int{}
	names := map[*types.Var]string{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				rank, ok := lockRankComment(field)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						ranks[v] = rank
						names[v] = ts.Name.Name + "." + name.Name
					}
				}
			}
			return true
		})
	}
	return ranks, names
}

// lockRankComment extracts the rank from a field's trailing or doc
// comment, e.g. `mu sync.Mutex //rmalint:lockrank 20`.
func lockRankComment(field *ast.Field) (int, bool) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//rmalint:lockrank")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			if rank, err := strconv.Atoi(fields[0]); err == nil {
				return rank, true
			}
		}
	}
	return 0, false
}

// lockFieldOf resolves x.f.Lock()/x.f.Unlock() to the annotated field f,
// or nil when the call is not a method on an annotated mutex field.
func lockFieldOf(info *types.Info, call *ast.CallExpr, ranks map[*types.Var]int) *types.Var {
	if len(ranks) == 0 {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if name := sel.Sel.Name; name != "Lock" && name != "Unlock" {
		return nil
	}
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := info.Uses[recv.Sel].(*types.Var)
	if !ok {
		return nil
	}
	if _, annotated := ranks[v]; !annotated {
		return nil
	}
	return v
}
