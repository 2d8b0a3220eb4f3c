package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// passLockGuard is the lock-discipline analysis: struct fields annotated
// `// guarded by <mu>` may only be accessed with that mutex held. The
// analysis tracks lock state intra-procedurally — `x.mu.Lock()` puts
// "x.mu" into the held set, `x.mu.Unlock()` removes it, `defer
// x.mu.Unlock()` keeps it held to the end of the function — and every
// read or write of a guarded field is checked against the set. Methods
// whose callers hold the lock declare it with //lint:holds <mu>: inside
// them the receiver's guarded fields are accessible, and each call site
// is checked for the lock instead.
//
// The tracking is best-effort by design: branches are analyzed with a
// copy of the held set and do not propagate lock-state changes outward,
// and function literals start from an empty held set. The failure mode is
// a false positive, never a false negative — an access the analysis
// cannot prove locked is reported, and a deliberate exception (such as
// constructor code before the value is published) carries a documented
// //lint:ignore.
//
// Across calls the analysis applies callee summaries at statement-level
// call sites: a callee with a net lock effect (a helper that unlocks on
// the caller's behalf, or locks and leaves the mutex held) updates the
// held set; a callee that may re-acquire a mutex the caller already holds
// is a self-deadlock; and //lint:holds obligations propagate transitively
// — an unannotated wrapper around a holds-annotated method carries the
// obligation to its own callers.
func passLockGuard() *Pass {
	return &Pass{
		Name: "lockguard",
		Doc:  "guarded-field access without the declared mutex held",
		Sev:  SevError,
		Run: func(c *Context) {
			if len(c.Ann.guards) == 0 {
				return
			}
			lg := &lockGuard{c: c}
			for _, file := range c.Pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					fd, ok := n.(*ast.FuncDecl)
					if ok && fd.Body != nil {
						lg.checkFunc(fd)
					}
					return true
				})
			}
		},
	}
}

type lockGuard struct {
	c *Context
	// holdsMu is the //lint:holds mutex name of the function under
	// analysis ("" when none) and holdsRecv its receiver name.
	holdsMu   string
	holdsRecv string
}

type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func (lg *lockGuard) checkFunc(fd *ast.FuncDecl) {
	lg.holdsMu, lg.holdsRecv = "", ""
	if obj, ok := lg.c.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
		if mu, ok := lg.c.Ann.holds[obj]; ok {
			lg.holdsMu = mu
			if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
				lg.holdsRecv = fd.Recv.List[0].Names[0].Name
			}
		}
	}
	held := heldSet{}
	if lg.holdsMu != "" && lg.holdsRecv != "" {
		held[lg.holdsRecv+"."+lg.holdsMu] = true
	}
	// Inherited obligations: a function whose summary requires a mutex at
	// entry (because a callee does) analyzes its body with that mutex held
	// — its own call sites carry the obligation instead.
	if obj, ok := lg.c.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
		if cs := lg.c.Interp.SummaryOf(obj); cs != nil {
			for _, ref := range sortedLockRefs(cs.Requires) {
				if name := slotName(fd, ref.Slot); name != "" {
					held[name+"."+ref.Mu] = true
				}
			}
		}
	}
	lg.scanStmts(fd.Body.List, held)
}

// slotName resolves a lockRef slot to the declared receiver or parameter
// name of a function declaration.
func slotName(fd *ast.FuncDecl, slot int) string {
	if slot == -1 {
		if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
			return fd.Recv.List[0].Names[0].Name
		}
		return ""
	}
	i := 0
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if i == slot {
				return name.Name
			}
			i++
		}
	}
	return ""
}

// sortedLockRefs orders a lockRef set deterministically.
func sortedLockRefs(m map[lockRef]bool) []lockRef {
	out := make([]lockRef, 0, len(m))
	for ref := range m {
		out = append(out, ref)
	}
	sortLockRefs(out)
	return out
}

func sortLockRefs(out []lockRef) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slot != out[j].Slot {
			return out[i].Slot < out[j].Slot
		}
		return out[i].Mu < out[j].Mu
	})
}

// scanStmts threads the held set through a statement list in order.
func (lg *lockGuard) scanStmts(stmts []ast.Stmt, held heldSet) {
	for _, s := range stmts {
		lg.scanStmt(s, held)
	}
}

// scanStmt updates held for lock transitions in s and checks every
// guarded-field access inside it. Nested blocks get a copy of the set so
// their transitions stay local (best-effort flow handling).
func (lg *lockGuard) scanStmt(s ast.Stmt, held heldSet) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := lg.lockCall(x.X); ok {
			lg.checkExprs(x.X, held) // the receiver chain itself
			if op {
				held[key] = true
			} else {
				delete(held, key)
			}
			return
		}
		lg.checkExprs(x.X, held)
		lg.applyCallEffects(x.X, held)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			lg.checkExprs(r, held)
		}
		for _, l := range x.Lhs {
			lg.checkExprs(l, held)
		}
		for _, r := range x.Rhs {
			lg.applyCallEffects(r, held)
		}
	case *ast.DeferStmt:
		// defer x.mu.Unlock() keeps the lock held for the remainder of the
		// function; any other deferred call is checked against the current
		// set (an approximation — it actually runs at return).
		if _, _, ok := lg.lockCall(x.Call); !ok {
			lg.checkExprs(x.Call, held)
		}
	case *ast.BlockStmt:
		lg.scanStmts(x.List, held)
	case *ast.IfStmt:
		if x.Init != nil {
			lg.scanStmt(x.Init, held)
		}
		lg.checkExprs(x.Cond, held)
		lg.scanStmts(x.Body.List, held.clone())
		if x.Else != nil {
			lg.scanStmt(x.Else, held.clone())
		}
	case *ast.ForStmt:
		if x.Init != nil {
			lg.scanStmt(x.Init, held)
		}
		if x.Cond != nil {
			lg.checkExprs(x.Cond, held)
		}
		body := held.clone()
		lg.scanStmts(x.Body.List, body)
		if x.Post != nil {
			lg.scanStmt(x.Post, body)
		}
	case *ast.RangeStmt:
		lg.checkExprs(x.X, held)
		lg.scanStmts(x.Body.List, held.clone())
	case *ast.SwitchStmt:
		if x.Init != nil {
			lg.scanStmt(x.Init, held)
		}
		if x.Tag != nil {
			lg.checkExprs(x.Tag, held)
		}
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					lg.checkExprs(e, held)
				}
				lg.scanStmts(cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			lg.scanStmt(x.Init, held)
		}
		lg.scanStmt(x.Assign, held)
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				lg.scanStmts(cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if cc.Comm != nil {
					lg.scanStmt(cc.Comm, held.clone())
				}
				lg.scanStmts(cc.Body, held.clone())
			}
		}
	case *ast.LabeledStmt:
		lg.scanStmt(x.Stmt, held)
	default:
		// Assignments, returns, go/send/incdec statements: plain
		// expression checks.
		ast.Inspect(s, func(n ast.Node) bool {
			switch y := n.(type) {
			case *ast.FuncLit:
				lg.scanStmts(y.Body.List, heldSet{})
				return false
			case *ast.SelectorExpr:
				lg.checkSelector(y, held)
			}
			return true
		})
	}
}

// checkExprs checks guarded accesses in an expression tree; nested
// function literals start from an empty held set (they may run on another
// goroutine or after the lock is released).
func (lg *lockGuard) checkExprs(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lg.scanStmts(x.Body.List, heldSet{})
			return false
		case *ast.SelectorExpr:
			lg.checkSelector(x, held)
		}
		return true
	})
}

// checkSelector reports a guarded field accessed without its mutex, and
// checks lint:holds call-site obligations.
func (lg *lockGuard) checkSelector(sel *ast.SelectorExpr, held heldSet) {
	s, ok := lg.c.Pkg.Info.Selections[sel]
	if !ok {
		return
	}
	if f, ok := s.Obj().(*types.Var); ok {
		mu, guarded := lg.c.Ann.guards[f]
		if !guarded {
			return
		}
		key := exprString(sel.X) + "." + mu
		if held[key] {
			return
		}
		lg.c.Report(sel, fmt.Sprintf(
			"field %s.%s (guarded by %s) accessed without holding %s",
			exprString(sel.X), f.Name(), mu, key))
		return
	}
	if m, ok := s.Obj().(*types.Func); ok {
		// Receiver-slot obligations: the direct //lint:holds annotation
		// plus whatever the callee's summary inherited from its own
		// callees. The summary subsumes the annotation, so the key set
		// deduplicates the two sources.
		keys := map[string]bool{}
		if mu, needs := lg.c.Ann.holds[m]; needs {
			keys[exprString(sel.X)+"."+mu] = true
		}
		if cs := lg.c.Interp.SummaryOf(m); cs != nil {
			for ref := range cs.Requires {
				if ref.Slot == -1 {
					keys[exprString(sel.X)+"."+ref.Mu] = true
				}
			}
		}
		for _, key := range sortedStringKeys(keys) {
			if held[key] {
				continue
			}
			lg.c.Report(sel, fmt.Sprintf(
				"call to %s requires %s held (lint:holds)", m.Name(), key))
		}
	}
}

func sortedStringKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// applyCallEffects applies a statement-level call's interprocedural lock
// facts to the held set: parameter-slot obligations are checked, a callee
// that may re-acquire an already-held mutex is a self-deadlock, and the
// callee's net lock effect updates the set. Statement-level only — a call
// buried in a larger expression cannot reliably order its effect against
// the expression's other accesses, so it is left alone (false-positive-
// averse, like every approximation in this pass).
func (lg *lockGuard) applyCallEffects(e ast.Expr, held heldSet) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := callee(lg.c.Pkg.Info, call)
	cs := lg.c.Interp.SummaryOf(fn)
	if cs == nil {
		return
	}
	bind := func(ref lockRef) (string, bool) {
		var bound ast.Expr
		if ref.Slot == -1 {
			sel, isSel := call.Fun.(*ast.SelectorExpr)
			if !isSel {
				return "", false
			}
			bound = sel.X
		} else if ref.Slot < len(call.Args) {
			bound = call.Args[ref.Slot]
		}
		if bound == nil {
			return "", false
		}
		return exprString(bound) + "." + ref.Mu, true
	}
	// Parameter-slot obligations (receiver-slot ones are reported by
	// checkSelector, which sees every method reference).
	for _, ref := range sortedLockRefs(cs.Requires) {
		if ref.Slot < 0 {
			continue
		}
		if key, ok := bind(ref); ok && !held[key] {
			lg.c.Report(call, fmt.Sprintf(
				"call to %s requires %s held (lint:holds)", fn.Name(), key))
		}
	}
	for _, ref := range sortedLockRefs(cs.MayAcquire) {
		if key, ok := bind(ref); ok && held[key] {
			lg.c.Report(call, fmt.Sprintf(
				"possible self-deadlock: call to %s may re-acquire %s, which is already held", fn.Name(), key))
		}
	}
	deltas := make([]lockRef, 0, len(cs.LockDelta))
	for ref := range cs.LockDelta {
		deltas = append(deltas, ref)
	}
	sortLockRefs(deltas)
	for _, ref := range deltas {
		key, ok := bind(ref)
		if !ok {
			continue
		}
		if cs.LockDelta[ref] > 0 {
			held[key] = true
		} else {
			delete(held, key)
		}
	}
}

// lockCall decodes `<base>.<mu>.Lock()`-shaped calls on sync.Mutex /
// sync.RWMutex values; it returns the held-set key, whether the call
// acquires (true) or releases (false), and ok.
func (lg *lockGuard) lockCall(e ast.Expr) (key string, acquires, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquires = true
	case "Unlock", "RUnlock":
		acquires = false
	default:
		return "", false, false
	}
	recv := sel.X
	t := lg.c.TypeOf(recv)
	if t == nil || !isSyncMutex(t) {
		return "", false, false
	}
	return exprString(recv), acquires, true
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncMutex(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
