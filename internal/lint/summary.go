package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Per-function summaries are the interprocedural currency of the engine:
// each function is analyzed once, bottom-up over the call graph's SCC
// condensation, and the facts a caller needs about a callee — what locks it
// takes or drops, whether its results carry owned or shared backing,
// which of its loops may spin without observing the cooperative-stop
// signal — are available at every call site without re-walking the
// callee. The lattice is deliberately shallow: every fact defaults to
// "unknown", unknown facts never produce diagnostics, and a fact is only
// asserted when the body proves it. Recursive cycles are summarized with
// their members' defaults (a cycle member sees its peers as unknown),
// which loses precision inside the cycle but stays sound for the
// false-positive-averse passes consuming the facts.

// lockRef names a mutex relative to a function's signature: Slot -1 is the
// receiver, otherwise the parameter index; Mu is the mutex field name on
// that value.
type lockRef struct {
	Slot int
	Mu   string
}

// Summary is the interprocedural fact sheet of one declared function.
type Summary struct {
	Node *FuncNode

	// LockDelta is the net effect one call has on the caller's lock state,
	// computed from the unconditional (top-statement-level) Lock/Unlock
	// calls of the body: +1 means the callee returns with the mutex held
	// on the caller's behalf, -1 means the callee releases a mutex the
	// caller held on entry. Lock operations inside branches contribute
	// nothing (their effect is input-dependent).
	LockDelta map[lockRef]int
	// MayAcquire records every mutex the body may write-Lock anywhere,
	// including conditionally — the self-deadlock check's domain.
	MayAcquire map[lockRef]bool
	// Requires records the mutexes that must already be held when the
	// function is entered: its own //lint:holds annotation, plus
	// obligations inherited from callees it invokes on its receiver or
	// parameters without locking them itself.
	Requires map[lockRef]bool

	// ReturnsFresh marks results (of ownership-tracked types) proven to
	// carry locally allocated backing on every return path.
	ReturnsFresh []bool
	// ReturnsShared marks results that may alias a //lint:shared field's
	// backing on some return path.
	ReturnsShared []bool
	// ReturnsParam maps result i to the parameter index whose backing it
	// aliases (-1 when it does not pass a parameter through).
	ReturnsParam []int
	// EscapesParam marks parameters whose backing the body stores beyond
	// the call: into a field, an element of a container, a channel, or a
	// callee that does the same.
	EscapesParam []bool

	// SpinLoops are loops that may iterate unboundedly without observing a
	// stop signal: condition-less for-loops, and condition-only loops
	// whose condition no body statement can change.
	SpinLoops []token.Pos
}

// interpAnn is the module-wide annotation index: the per-package maps are
// keyed on type objects, so their union is well defined across packages.
type interpAnn struct {
	guards  map[*types.Var]string
	shared  map[*types.Var]bool
	mutates map[*types.Func][]string
	holds   map[*types.Func]string
}

func mergeAnnotations(anns []*annotations) *interpAnn {
	m := &interpAnn{
		guards:  map[*types.Var]string{},
		shared:  map[*types.Var]bool{},
		mutates: map[*types.Func][]string{},
		holds:   map[*types.Func]string{},
	}
	for _, a := range anns {
		for k, v := range a.guards {
			m.guards[k] = v
		}
		for k := range a.shared {
			m.shared[k] = true
		}
		for k, v := range a.mutates {
			m.mutates[k] = v
		}
		for k, v := range a.holds {
			m.holds[k] = v
		}
	}
	return m
}

// Interp is the module-wide interprocedural context handed to every pass:
// call graph, summaries, merged annotations, and the shared-ownership type
// domain.
type Interp struct {
	Mod       *Module
	Graph     *CallGraph
	Ann       *interpAnn
	Summaries map[*types.Func]*Summary

	owners     map[*types.Named]bool
	fieldTypes []types.Type
}

// SummaryOf returns the callee's summary (nil for functions without a body
// in the module).
func (ip *Interp) SummaryOf(fn *types.Func) *Summary {
	return ip.Summaries[fn]
}

// buildOwnership derives the sharedmut type domain from the shared-field
// set: the named structs owning a shared field, and the fields' own slice
// types.
func buildOwnership(shared map[*types.Var]bool, pkgs []*Package) (map[*types.Named]bool, []types.Type) {
	owners := map[*types.Named]bool{}
	var fieldTypes []types.Type
	for f := range shared {
		fieldTypes = append(fieldTypes, f.Type())
		for _, pkg := range pkgs {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i) == f {
						owners[named] = true
					}
				}
			}
		}
	}
	return owners, fieldTypes
}

// buildInterp computes the full interprocedural context for a module.
func buildInterp(mod *Module, anns []*annotations, g *CallGraph) *Interp {
	ip := &Interp{
		Mod:       mod,
		Graph:     g,
		Ann:       mergeAnnotations(anns),
		Summaries: map[*types.Func]*Summary{},
	}
	ip.owners, ip.fieldTypes = buildOwnership(ip.Ann.shared, mod.Pkgs)
	for _, n := range g.BottomUp {
		ip.Summaries[n.Fn] = ip.summarize(n)
	}
	return ip
}

// trackedType reports whether t is in the shared-ownership domain.
func (ip *Interp) trackedType(t types.Type) bool {
	if t == nil {
		return false
	}
	if n := namedType(t); n != nil && ip.owners[n] {
		return true
	}
	for _, ft := range ip.fieldTypes {
		if types.Identical(t, ft) {
			return true
		}
	}
	return false
}

// sharedFieldVar resolves a selector to a //lint:shared field object using
// the module-wide index.
func (ip *Interp) sharedFieldVar(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return nil
	}
	f, ok := s.Obj().(*types.Var)
	if !ok || !ip.shared(f) {
		return nil
	}
	return f
}

func (ip *Interp) shared(f *types.Var) bool { return ip.Ann.shared[f] }

// summarize computes one function's summary; callee summaries earlier in
// the bottom-up order are already in place.
func (ip *Interp) summarize(n *FuncNode) *Summary {
	s := &Summary{
		Node:       n,
		LockDelta:  map[lockRef]int{},
		MayAcquire: map[lockRef]bool{},
		Requires:   map[lockRef]bool{},
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig == nil {
		return s
	}
	slots := signatureSlots(n, sig)

	ip.lockFacts(n, s, slots)
	ip.ownershipFacts(n, s, sig, slots)
	ip.stopFacts(n, s)
	return s
}

// signatureSlots maps the receiver and parameter objects of a declaration
// to their lockRef slots.
func signatureSlots(n *FuncNode, sig *types.Signature) map[*types.Var]int {
	slots := map[*types.Var]int{}
	if recv := sig.Recv(); recv != nil {
		slots[recv] = -1
	}
	// Parameter objects in Defs are the declared idents; sig.Params() holds
	// the same objects.
	for i := 0; i < sig.Params().Len(); i++ {
		slots[sig.Params().At(i)] = i
	}
	// The receiver object in the signature and the ident in the
	// declaration can differ; map the declared ident's object too.
	if n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 && len(n.Decl.Recv.List[0].Names) > 0 {
		if obj, ok := n.Pkg.Info.Defs[n.Decl.Recv.List[0].Names[0]].(*types.Var); ok {
			slots[obj] = -1
		}
	}
	return slots
}

// slotOf resolves an expression to a signature slot: a plain identifier
// bound to the receiver or a parameter.
func slotOf(pkg *Package, slots map[*types.Var]int, e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return 0, false
	}
	slot, ok := slots[obj]
	return slot, ok
}

// lockFacts fills LockDelta, MayAcquire, and Requires.
func (ip *Interp) lockFacts(n *FuncNode, s *Summary, slots map[*types.Var]int) {
	info := n.Pkg.Info

	// mutexRef decodes <ident>.<field> where ident is a signature value and
	// field a sync mutex.
	mutexRef := func(recv ast.Expr) (lockRef, bool) {
		sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
		if !ok {
			return lockRef{}, false
		}
		slot, ok := slotOf(n.Pkg, slots, sel.X)
		if !ok {
			return lockRef{}, false
		}
		t := info.TypeOf(sel)
		if t == nil || !isSyncMutex(t) {
			return lockRef{}, false
		}
		return lockRef{Slot: slot, Mu: sel.Sel.Name}, true
	}

	// lockOp decodes one statement-level lock transition.
	lockOp := func(e ast.Expr) (ref lockRef, delta int, ok bool) {
		call, isCall := ast.Unparen(e).(*ast.CallExpr)
		if !isCall {
			return lockRef{}, 0, false
		}
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel {
			return lockRef{}, 0, false
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			delta = 1
		case "Unlock", "RUnlock":
			delta = -1
		default:
			return lockRef{}, 0, false
		}
		ref, ok = mutexRef(sel.X)
		return ref, delta, ok
	}

	// Net effect: unconditional ops only — the top statement list of the
	// body, with defer-unlocks applied at exit.
	net := map[lockRef]int{}
	deferred := map[lockRef]int{}
	for _, stmt := range n.Decl.Body.List {
		switch x := stmt.(type) {
		case *ast.ExprStmt:
			if ref, d, ok := lockOp(x.X); ok {
				net[ref] += d
			}
		case *ast.DeferStmt:
			if ref, d, ok := lockOp(x.Call); ok && d < 0 {
				deferred[ref]++
			}
		}
	}
	for ref, c := range deferred {
		net[ref] -= c
	}
	for ref, d := range net {
		if d != 0 {
			s.LockDelta[ref] = d
		}
	}

	// MayAcquire: write locks anywhere in the body, branches and literals
	// included.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Lock" {
			return true
		}
		if ref, ok := mutexRef(sel.X); ok {
			s.MayAcquire[ref] = true
		}
		return true
	})

	// Requires: the declared obligation first.
	if mu, ok := ip.Ann.holds[n.Fn]; ok {
		s.Requires[lockRef{Slot: -1, Mu: mu}] = true
	}
	// Inherited obligations: a callee invoked on one of our signature
	// values, requiring a mutex we neither hold by annotation nor ever
	// acquire, passes the obligation to our callers. Calls under a branch
	// still propagate — the obligation exists on at least one path.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(info, call)
		cs := ip.SummaryOf(fn)
		if cs == nil || len(cs.Requires) == 0 {
			return true
		}
		for ref := range cs.Requires {
			var bound ast.Expr
			if ref.Slot == -1 {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					bound = sel.X
				}
			} else if ref.Slot < len(call.Args) {
				bound = call.Args[ref.Slot]
			}
			if bound == nil {
				continue
			}
			slot, ok := slotOf(n.Pkg, slots, bound)
			if !ok {
				continue
			}
			ours := lockRef{Slot: slot, Mu: ref.Mu}
			if s.MayAcquire[ours] || s.Requires[ours] {
				continue
			}
			s.Requires[ours] = true
		}
		return true
	})
}

// ownershipFacts fills the returns-fresh / returns-shared / returns-param
// and escapes-param columns for tracked types.
func (ip *Interp) ownershipFacts(n *FuncNode, s *Summary, sig *types.Signature, slots map[*types.Var]int) {
	nres := sig.Results().Len()
	s.ReturnsFresh = make([]bool, nres)
	s.ReturnsShared = make([]bool, nres)
	s.ReturnsParam = make([]int, nres)
	for i := range s.ReturnsParam {
		s.ReturnsParam[i] = -1
	}
	s.EscapesParam = make([]bool, sig.Params().Len())

	anyTracked := false
	for i := 0; i < nres; i++ {
		if ip.trackedType(sig.Results().At(i).Type()) {
			anyTracked = true
		}
	}
	trackedParams := map[int]bool{}
	for i := 0; i < sig.Params().Len(); i++ {
		if ip.trackedType(sig.Params().At(i).Type()) {
			trackedParams[i] = true
		}
	}
	if anyTracked {
		ip.returnFacts(n, s, sig, slots)
	}
	if len(trackedParams) > 0 {
		ip.escapeFacts(n, s, slots, trackedParams)
	}
}

// returnFacts classifies every return site of the function (function
// literals excluded — their returns are not ours).
func (ip *Interp) returnFacts(n *FuncNode, s *Summary, sig *types.Signature, slots map[*types.Var]int) {
	nres := len(s.ReturnsFresh)
	cls := &shapeClassifier{ip: ip, n: n, slots: slots}
	fresh := make([]bool, nres)
	for i := range fresh {
		fresh[i] = ip.trackedType(sig.Results().At(i).Type())
	}
	param := make([]int, nres)
	seenReturn := false
	for i := range param {
		param[i] = -2 // unset
	}
	forEachOwnStmt(n.Decl.Body, func(stmt ast.Stmt) {
		ret, ok := stmt.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != nres || nres == 0 {
			if ok {
				// Naked return or comma-spread: classify nothing.
				for i := range fresh {
					fresh[i] = false
				}
				seenReturn = seenReturn || ok
			}
			return
		}
		seenReturn = true
		for i, e := range ret.Results {
			if !ip.trackedType(sig.Results().At(i).Type()) {
				continue
			}
			k := cls.classify(e, 0)
			if k.fresh != 1 {
				fresh[i] = false
			}
			if k.shared {
				s.ReturnsShared[i] = true
			}
			switch param[i] {
			case -2:
				param[i] = k.param
			default:
				if param[i] != k.param {
					param[i] = -1
				}
			}
		}
	})
	if seenReturn {
		copy(s.ReturnsFresh, fresh)
		for i, p := range param {
			if p >= 0 {
				s.ReturnsParam[i] = p
			}
		}
	}
}

// escapeFacts marks tracked parameters whose backing is stored beyond the
// call frame.
func (ip *Interp) escapeFacts(n *FuncNode, s *Summary, slots map[*types.Var]int, trackedParams map[int]bool) {
	info := n.Pkg.Info
	paramSlot := func(e ast.Expr) (int, bool) {
		slot, ok := slotOf(n.Pkg, slots, e)
		if !ok || slot < 0 || !trackedParams[slot] {
			return 0, false
		}
		return slot, true
	}
	mark := func(e ast.Expr) {
		if slot, ok := paramSlot(e); ok {
			s.EscapesParam[slot] = true
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				switch lhs := l.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					mark(x.Rhs[i])
				case *ast.Ident:
					// Stored into a package-level variable: outlives the call.
					if obj, ok := info.Uses[lhs].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						mark(x.Rhs[i])
					}
				}
			}
		case *ast.SendStmt:
			mark(x.Value)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					mark(kv.Value)
				} else {
					mark(el)
				}
			}
		case *ast.CallExpr:
			// append(container.field, p) escapes p into the container; a
			// callee that escapes its parameter escapes ours.
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" {
				for _, a := range x.Args[min(1, len(x.Args)):] {
					mark(a)
				}
				return true
			}
			cs := ip.SummaryOf(callee(info, x))
			if cs == nil {
				return true
			}
			for i, a := range x.Args {
				if i < len(cs.EscapesParam) && cs.EscapesParam[i] {
					mark(a)
				}
			}
		}
		return true
	})
}

// shapeKind is the result of the shape classifier: fresh is a tri-state
// (1 proven fresh, 0 unknown, -1 proven-not), shared marks possible
// aliasing of a //lint:shared field, param the pass-through parameter.
type shapeKind struct {
	fresh  int
	shared bool
	param  int // -1 none
}

// shapeClassifier classifies expressions by shape, flow-insensitively:
// local variables resolve through the set of every assignment to them in
// the body. Depth-capped against pathological chains.
type shapeClassifier struct {
	ip    *Interp
	n     *FuncNode
	slots map[*types.Var]int
	seen  map[*types.Var]bool
}

func (c *shapeClassifier) classify(e ast.Expr, depth int) shapeKind {
	unknown := shapeKind{fresh: 0, param: -1}
	if depth > 8 || e == nil {
		return unknown
	}
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == "nil" {
			return shapeKind{fresh: 1, param: -1}
		}
		obj, ok := c.n.Pkg.Info.Uses[x].(*types.Var)
		if !ok {
			return unknown
		}
		if slot, isSig := c.slots[obj]; isSig {
			if slot >= 0 {
				return shapeKind{fresh: 0, param: slot}
			}
			return unknown // the receiver itself
		}
		return c.classifyVar(obj, depth)
	case *ast.UnaryExpr:
		return c.classify(x.X, depth+1)
	case *ast.SliceExpr:
		return c.classify(x.X, depth+1)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "make", "new":
				return shapeKind{fresh: 1, param: -1}
			case "append":
				if len(x.Args) == 0 {
					return shapeKind{fresh: 1, param: -1}
				}
				return c.classify(x.Args[0], depth+1)
			}
		}
		if tv, ok := c.n.Pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return c.classify(x.Args[0], depth+1)
		}
		if cs := c.ip.SummaryOf(callee(c.n.Pkg.Info, x)); cs != nil {
			// Single-result calls only: multi-value shapes stay unknown.
			if len(cs.ReturnsFresh) == 1 {
				k := unknown
				if cs.ReturnsFresh[0] {
					k.fresh = 1
				}
				if cs.ReturnsShared[0] {
					k.shared = true
				}
				if p := cs.ReturnsParam[0]; p >= 0 && p < len(x.Args) {
					inner := c.classify(x.Args[p], depth+1)
					if k.fresh == 0 {
						k.fresh = inner.fresh
					}
					k.shared = k.shared || inner.shared
					k.param = inner.param
				}
				return k
			}
		}
		return unknown
	case *ast.CompositeLit:
		return shapeKind{fresh: 1, param: -1}
	case *ast.SelectorExpr:
		if c.ip.sharedFieldVar(c.n.Pkg, x) != nil {
			return shapeKind{fresh: -1, shared: true, param: -1}
		}
		return unknown
	}
	return unknown
}

// classifyVar folds the classifications of every assignment to a local
// variable: fresh only if every assignment is fresh, shared if any is.
func (c *shapeClassifier) classifyVar(obj *types.Var, depth int) shapeKind {
	if c.seen[obj] {
		// A self-referential binding (out = append(out, ...)) is neutral:
		// the variable's shape is decided by its other bindings.
		return shapeKind{fresh: 1, param: -1}
	}
	if c.seen == nil {
		c.seen = map[*types.Var]bool{}
	}
	c.seen[obj] = true
	defer delete(c.seen, obj)
	out := shapeKind{fresh: 1, param: -1}
	found := false
	forEachAssign(c.n, obj, func(rhs ast.Expr) {
		found = true
		if rhs == nil { // var decl without initializer: nil, fresh
			return
		}
		k := c.classify(rhs, depth+1)
		if k.fresh != 1 {
			out.fresh = min(out.fresh, k.fresh)
		}
		out.shared = out.shared || k.shared
	})
	if !found {
		return shapeKind{fresh: 0, param: -1}
	}
	return out
}

// forEachAssign visits the right-hand side of every assignment and
// declaration binding obj inside the function (nil rhs for bare var
// declarations). Range-clause bindings count as opaque assignments.
func forEachAssign(n *FuncNode, obj *types.Var, fn func(rhs ast.Expr)) {
	info := n.Pkg.Info
	bound := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		if info.Defs[id] == obj {
			return true
		}
		return info.Uses[id] == obj
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			balanced := len(x.Lhs) == len(x.Rhs)
			for i, l := range x.Lhs {
				if !bound(l) {
					continue
				}
				if balanced {
					fn(x.Rhs[i])
				} else {
					fn(x.Rhs[0]) // multi-value: opaque call result
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if !bound(name) {
					continue
				}
				if i < len(x.Values) {
					fn(x.Values[i])
				} else {
					fn(nil)
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if e != nil && bound(e) {
					fn(x.X) // backing comes from the ranged collection
				}
			}
		}
		return true
	})
}

// stopFacts records the spin-suspect loops of the body.
func (ip *Interp) stopFacts(n *FuncNode, s *Summary) {
	for _, loop := range spinLoopsIn(n.Pkg, n.Decl.Body) {
		s.SpinLoops = append(s.SpinLoops, loop.Pos())
	}
}

// spinLoopsIn collects the loops of a body that may iterate unboundedly
// without observing a stop signal.
func spinLoopsIn(pkg *Package, body *ast.BlockStmt) []*ast.ForStmt {
	var out []*ast.ForStmt
	ast.Inspect(body, func(node ast.Node) bool {
		loop, ok := node.(*ast.ForStmt)
		if !ok || loop.Init != nil || loop.Post != nil {
			return true
		}
		// `for { ... }` is unbounded by construction; `for cond { ... }`
		// spins when nothing in the body can change the condition.
		if loop.Cond != nil && condCanProgress(pkg, loop) {
			return true
		}
		if !observesStopSignal(pkg, loop.Body) {
			out = append(out, loop)
		}
		return true
	})
	return out
}

// observesStopSignal reports whether the node observes a cooperative-stop
// signal: atomic.Bool Load, channel receive (including select and
// range-over-channel), or context.Done / context.Err. stopflow's spin
// loops and gohygiene's spawn check share this one definition.
func observesStopSignal(pkg *Package, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(node ast.Node) bool {
		if found {
			return false
		}
		switch x := node.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Load":
					if isAtomicBool(pkg.Info.TypeOf(sel.X)) {
						found = true
					}
				case "Done", "Err":
					if isContext(pkg.Info.TypeOf(sel.X)) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// isAtomicBool reports whether t is sync/atomic.Bool.
func isAtomicBool(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Bool"
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// condCanProgress reports whether a condition-only for loop's condition
// can plausibly change: it contains a call or channel operation, or one of
// its identifiers is written somewhere in the body.
func condCanProgress(pkg *Package, loop *ast.ForStmt) bool {
	progress := false
	condVars := map[types.Object]bool{}
	ast.Inspect(loop.Cond, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr, *ast.UnaryExpr:
			if u, ok := x.(*ast.UnaryExpr); !ok || u.Op == token.ARROW {
				progress = true
			}
		case *ast.IndexExpr, *ast.SelectorExpr:
			// Loads through memory the body may write: give the loop the
			// benefit of the doubt.
			progress = true
		case *ast.Ident:
			if obj := pkg.Info.Uses[x]; obj != nil {
				condVars[obj] = true
			}
		}
		return true
	})
	if progress {
		return true
	}
	written := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil && condVars[obj] {
				progress = true
			}
		}
	}
	ast.Inspect(loop.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				written(l)
			}
		case *ast.IncDecStmt:
			written(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				written(x.X)
			}
		}
		return !progress
	})
	return progress
}

// forEachOwnStmt visits every statement of the body that belongs to the
// function itself, skipping the bodies of nested function literals.
func forEachOwnStmt(body *ast.BlockStmt, fn func(ast.Stmt)) {
	ast.Inspect(body, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		if stmt, ok := node.(ast.Stmt); ok {
			fn(stmt)
		}
		return true
	})
}
