package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// passSharedMut is the aliasing/ownership analysis: values whose
// //lint:shared-annotated slice fields may alias shared storage (a
// relation's rows aliasing sqldb base-table storage via the star fast
// path) must not be mutated in place — no in-place sort, no element
// assignment, no append into the shared backing array — until the field
// has been freshened with an owned copy. This is exactly the PR 4
// fast-path bug class: ORDER BY sorting, and UNION appending into, rows
// slices that still aliased a base table corrupted the table for every
// other query and raced with concurrent executions of a shared plan.
//
// The analysis is provenance-based and follows provenance across calls:
// a call whose callee summary proves returns-fresh classifies as locally
// owned instead of giving up, a callee that returns a //lint:shared
// field's backing taints the result, a callee that passes a parameter
// through to its result propagates the argument's provenance, and a
// callee that stores a parameter's backing beyond the call (escapes-param)
// revokes the caller's exclusive ownership of that argument. The type
// domain and the annotations are module-wide: a package mutating another
// package's shared-annotated values is held to the same rules.
//
// Within one function the analysis is flow-sensitive. A value of an
// "ownership-tracked" type (a struct declaring a shared field, a pointer
// to one, or the shared field's own slice type) is tainted when it arrives
// from a call, a parameter, or a collection — anywhere its backing array
// may be shared — and fresh when it is built locally from make/append-
// to-make/composite literals. Assigning a fresh expression to the shared
// field (`v.rows = append(make([]Row, 0, n), v.rows...)`) transfers
// ownership to v for that field. Functions that mutate a parameter's
// shared backing in place declare it with //lint:mutates <param>; inside
// them the parameter is treated as owned, and every call site is checked
// to pass an owned value instead.
func passSharedMut() *Pass {
	return &Pass{
		Name: "sharedmut",
		Doc:  "in-place mutation of values that may alias shared storage",
		Sev:  SevError,
		Run: func(c *Context) {
			if len(c.Interp.Ann.shared) == 0 {
				return
			}
			sm := &sharedMut{c: c, ip: c.Interp}
			for _, file := range c.Pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					fd, ok := n.(*ast.FuncDecl)
					if ok && fd.Body != nil {
						sm.checkFunc(fd)
					}
					return true
				})
			}
		},
	}
}

type sharedMut struct {
	c  *Context
	ip *Interp
	// state maps "v" / "v.field" to freshness (true = locally owned
	// backing, false = possibly shared). Reset per function.
	state map[string]bool
}

// checkFunc runs the state machine over one function body.
func (sm *sharedMut) checkFunc(fd *ast.FuncDecl) {
	sm.state = map[string]bool{}
	owned := map[string]bool{}
	if obj, ok := sm.c.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
		for _, p := range sm.c.Ann.mutates[obj] {
			owned[p] = true
		}
	}
	seed := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				if sm.ip.trackedType(sm.c.TypeOf(name)) {
					sm.state[name.Name] = owned[name.Name]
				}
			}
		}
	}
	seed(fd.Recv)
	seed(fd.Type.Params)
	sm.scanStmts(fd.Body.List)
	sm.state = nil
}

// scanStmts threads the ownership state through a statement list in
// order. Branch bodies run on a copy of the state, so an assignment taken
// on one path (the parallel arm of a join returning early, say) cannot
// poison the analysis of the other path; the price is that freshening
// inside a branch is forgotten after it — a false-positive-only
// approximation.
func (sm *sharedMut) scanStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		sm.scanStmt(s)
	}
}

func (sm *sharedMut) branch(stmts []ast.Stmt) {
	saved := sm.state
	sm.state = map[string]bool{}
	for k, v := range saved {
		sm.state[k] = v
	}
	sm.scanStmts(stmts)
	sm.state = saved
}

func (sm *sharedMut) scanStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			sm.scanExpr(r)
		}
		sm.assign(x)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			sm.decl(gd)
		}
	case *ast.BlockStmt:
		sm.scanStmts(x.List)
	case *ast.IfStmt:
		if x.Init != nil {
			sm.scanStmt(x.Init)
		}
		sm.scanExpr(x.Cond)
		sm.branch(x.Body.List)
		if x.Else != nil {
			sm.branch([]ast.Stmt{x.Else})
		}
	case *ast.ForStmt:
		if x.Init != nil {
			sm.scanStmt(x.Init)
		}
		if x.Cond != nil {
			sm.scanExpr(x.Cond)
		}
		body := x.Body.List
		if x.Post != nil {
			body = append(body[:len(body):len(body)], x.Post)
		}
		sm.branch(body)
	case *ast.RangeStmt:
		sm.scanExpr(x.X)
		saved := sm.state
		sm.state = map[string]bool{}
		for k, v := range saved {
			sm.state[k] = v
		}
		sm.rangeVars(x)
		sm.scanStmts(x.Body.List)
		sm.state = saved
	case *ast.SwitchStmt:
		if x.Init != nil {
			sm.scanStmt(x.Init)
		}
		if x.Tag != nil {
			sm.scanExpr(x.Tag)
		}
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					sm.scanExpr(e)
				}
				sm.branch(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			sm.scanStmt(x.Init)
		}
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				sm.branch(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				body := cc.Body
				if cc.Comm != nil {
					body = append([]ast.Stmt{cc.Comm}, body...)
				}
				sm.branch(body)
			}
		}
	case *ast.LabeledStmt:
		sm.scanStmt(x.Stmt)
	case *ast.ExprStmt:
		sm.scanExpr(x.X)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			sm.scanExpr(r)
		}
	case *ast.GoStmt:
		sm.scanExpr(x.Call)
	case *ast.DeferStmt:
		sm.scanExpr(x.Call)
	case *ast.SendStmt:
		sm.scanExpr(x.Chan)
		sm.scanExpr(x.Value)
	case *ast.IncDecStmt:
		sm.scanExpr(x.X)
	}
}

// scanExpr applies the call-shaped mutation checks to every call in the
// expression tree; function literals are analyzed on a copy of the
// current state (they may capture and mutate, but close over the same
// provenance).
func (sm *sharedMut) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			sm.branch(x.Body.List)
			return false
		case *ast.CallExpr:
			sm.call(x)
		}
		return true
	})
}

// assign applies one assignment: mutation checks on indexed left-hand
// sides, then state transfer for tracked variables and shared fields.
func (sm *sharedMut) assign(as *ast.AssignStmt) {
	for _, l := range as.Lhs {
		if ix, ok := l.(*ast.IndexExpr); ok && sm.taintedExpr(ix.X) {
			sm.c.Report(as, fmt.Sprintf(
				"in-place element write to %s, which may alias shared storage; reassign it from a fresh copy first",
				exprString(ix.X)))
		}
	}
	balanced := len(as.Lhs) == len(as.Rhs)
	for i, l := range as.Lhs {
		fresh := false
		if balanced {
			fresh = sm.classify(as.Rhs[i])
		}
		switch lhs := l.(type) {
		case *ast.Ident:
			if lhs.Name != "_" && sm.ip.trackedType(sm.c.TypeOf(lhs)) {
				sm.state[lhs.Name] = fresh
			}
		case *ast.SelectorExpr:
			if sm.ip.sharedFieldVar(sm.c.Pkg, lhs) != nil {
				sm.state[exprString(lhs)] = fresh
			}
		}
	}
}

// decl applies `var v []T = ...` declarations: no initializer means a nil,
// locally owned slice.
func (sm *sharedMut) decl(gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if name.Name == "_" || !sm.ip.trackedType(sm.c.TypeOf(name)) {
				continue
			}
			fresh := true
			if len(vs.Values) > i {
				fresh = sm.classify(vs.Values[i])
			}
			sm.state[name.Name] = fresh
		}
	}
}

// rangeVars taints tracked range variables: rows handed out by a
// collection share whatever backing the collection's producer gave them.
func (sm *sharedMut) rangeVars(rs *ast.RangeStmt) {
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" && sm.ip.trackedType(sm.c.TypeOf(id)) {
			sm.state[id.Name] = false
		}
	}
}

// call applies the three call-shaped mutation checks: append into a shared
// backing array, in-place sorts, and lint:mutates call sites.
func (sm *sharedMut) call(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if sm.taintedExpr(call.Args[0]) {
			sm.c.Report(call, fmt.Sprintf(
				"append may write into the shared backing array of %s (possibly aliasing base-table storage); reassign it from a fresh copy first",
				exprString(call.Args[0])))
		}
		return
	}
	for _, pkgPath := range []string{"sort", "slices"} {
		if name, ok := isPkgFunc(sm.c, call, pkgPath, "Slice", "SliceStable", "Sort", "Stable", "SortFunc", "SortStableFunc"); ok && len(call.Args) > 0 {
			if sm.taintedExpr(call.Args[0]) {
				sm.c.Report(call, fmt.Sprintf(
					"%s.%s sorts %s in place, which may alias shared base-table storage; sort a fresh copy",
					pkgPath, name, exprString(call.Args[0])))
			}
			return
		}
	}
	sm.checkMutatesCall(call)
	// Escapes-param: handing a tracked value to a callee that stores its
	// backing beyond the call revokes the caller's exclusive ownership —
	// later in-place mutation would write into storage someone else now
	// also references.
	if cs := sm.calleeSummary(call); cs != nil {
		for i, a := range call.Args {
			if i >= len(cs.EscapesParam) || !cs.EscapesParam[i] {
				continue
			}
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if _, tracked := sm.state[id.Name]; tracked {
					sm.state[id.Name] = false
				}
			}
		}
	}
}

// checkMutatesCall verifies that arguments bound to lint:mutates parameters
// carry owned backing.
func (sm *sharedMut) checkMutatesCall(call *ast.CallExpr) {
	var fn *types.Func
	var recv ast.Expr
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = sm.c.ObjectOf(fun).(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = sm.c.ObjectOf(fun.Sel).(*types.Func)
		recv = fun.X
	}
	if fn == nil {
		return
	}
	params := sm.ip.Ann.mutates[fn]
	if len(params) == 0 {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for _, pname := range params {
		var arg ast.Expr
		if sig.Recv() != nil && sig.Recv().Name() == pname {
			arg = recv
		} else {
			for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
				if sig.Params().At(i).Name() == pname {
					arg = call.Args[i]
				}
			}
		}
		if arg == nil || sm.ownedArg(arg) {
			continue
		}
		sm.c.Report(call, fmt.Sprintf(
			"%s mutates %s in place (lint:mutates); argument %s may alias shared storage — pass an owned copy",
			fn.Name(), pname, exprString(arg)))
	}
}

// ownedArg reports whether an argument satisfies a lint:mutates parameter:
// the value is fresh, or every shared field it carries has been freshened.
func (sm *sharedMut) ownedArg(arg ast.Expr) bool {
	if sm.classify(arg) {
		return true
	}
	n := namedType(sm.c.TypeOf(arg))
	if n == nil || !sm.ip.owners[n] {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	base := exprString(arg)
	all := true
	anyShared := false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !sm.ip.shared(f) {
			continue
		}
		anyShared = true
		if !sm.state[base+"."+f.Name()] {
			all = false
		}
	}
	return anyShared && all
}

// taintedExpr reports whether e is ownership-tracked and currently
// possibly shared. Untracked expressions are never flagged: the pass
// reasons only about provenance it has proven.
func (sm *sharedMut) taintedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		fresh, ok := sm.state[x.Name]
		return ok && !fresh
	case *ast.SelectorExpr:
		if sm.ip.sharedFieldVar(sm.c.Pkg, x) == nil {
			return false
		}
		if fresh, ok := sm.state[exprString(x)]; ok {
			return !fresh
		}
		if fresh, ok := sm.state[exprString(x.X)]; ok {
			return !fresh
		}
		return true // shared field of an untracked base: assume shared
	case *ast.CallExpr:
		// Interprocedural: the callee's summary settles the result's
		// provenance. Returns-shared is tainted backing; a pass-through
		// result carries the argument's provenance; anything else —
		// including returns-fresh — is not proven tainted.
		cs := sm.calleeSummary(x)
		if cs == nil || len(cs.ReturnsFresh) != 1 {
			return false
		}
		if cs.ReturnsShared[0] {
			return true
		}
		if p := cs.ReturnsParam[0]; p >= 0 && p < len(x.Args) {
			return sm.taintedExpr(x.Args[p])
		}
		return false
	}
	return false
}

// calleeSummary resolves a call's static callee summary (nil when the
// callee has no body in the module).
func (sm *sharedMut) calleeSummary(call *ast.CallExpr) *Summary {
	return sm.ip.SummaryOf(callee(sm.c.Pkg.Info, call))
}

// classify computes the freshness of an expression: true means the backing
// array is locally owned.
func (sm *sharedMut) classify(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		if x.Name == "nil" {
			return true
		}
		if fresh, ok := sm.state[x.Name]; ok {
			return fresh
		}
		return false
	case *ast.UnaryExpr:
		return sm.classify(x.X)
	case *ast.SliceExpr:
		return sm.classify(x.X)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "make":
				return true
			case "append":
				if len(x.Args) > 0 {
					return sm.classify(x.Args[0])
				}
				return true
			}
		}
		// Conversions preserve the operand's backing; real calls return
		// values of unknown provenance — unless the callee's summary
		// proves returns-fresh (or passes a parameter through, in which
		// case the argument's provenance decides).
		if tv, ok := sm.c.Pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return sm.classify(x.Args[0])
		}
		if cs := sm.calleeSummary(x); cs != nil && len(cs.ReturnsFresh) == 1 {
			if cs.ReturnsFresh[0] {
				return true
			}
			if p := cs.ReturnsParam[0]; p >= 0 && p < len(x.Args) && !cs.ReturnsShared[0] {
				return sm.classify(x.Args[p])
			}
		}
		return false
	case *ast.CompositeLit:
		t := sm.c.TypeOf(x)
		n := namedType(t)
		if n == nil || !sm.ip.owners[n] {
			// Slice/map/plain literals own their backing.
			return true
		}
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		for _, el := range x.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				// Positional struct literal: assume the shared field is
				// among the values and classify them all.
				if !sm.classify(el) {
					return false
				}
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if sm.ip.shared(f) && f.Name() == key.Name && !sm.classify(kv.Value) {
					return false
				}
			}
		}
		return true
	case *ast.SelectorExpr:
		if sm.ip.sharedFieldVar(sm.c.Pkg, x) != nil {
			if fresh, ok := sm.state[exprString(x)]; ok {
				return fresh
			}
			if fresh, ok := sm.state[exprString(x.X)]; ok {
				return fresh
			}
		}
		return false
	}
	return false
}
