package lint

import (
	"go/ast"
	"strings"
)

// passGoHygiene is the goroutine-hygiene analysis for the engine packages
// (internal/sqldb and internal/core): no naked `go` statements outside the
// worker pool — every parallel operator borrows from the bounded Pool so
// nested operators cannot deadlock and goroutine counts stay bounded under
// a long-running server — and the sanctioned spawn sites (files carrying
// //lint:go-allowed) must thread the cooperative-stop signal: the spawned
// task has to observe an atomic.Bool stop flag, a channel receive (select
// and range-over-channel included), or a context cancellation, directly or
// through a local function literal it calls, so an error in any sibling
// task stops the whole fan-out.
func passGoHygiene() *Pass {
	return &Pass{
		Name: "gohygiene",
		Doc:  "goroutine spawning outside the pool / without a stop signal",
		Sev:  SevError,
		Run: func(c *Context) {
			if !goHygienePkg(c.Pkg.Path) {
				return
			}
			for _, file := range c.Pkg.Files {
				allowed := c.Ann.goAllowed[file]
				ast.Inspect(file, func(n ast.Node) bool {
					fd, ok := n.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						return true
					}
					// Local function literals, for one level of expansion:
					// `work := func() {...}; go func() { work() }()`.
					locals := localFuncLits(fd.Body)
					ast.Inspect(fd.Body, func(m ast.Node) bool {
						gs, ok := m.(*ast.GoStmt)
						if !ok {
							return true
						}
						if !allowed {
							c.Report(gs, "naked go statement outside the worker pool; fan work out through Pool (or annotate the file //lint:go-allowed with a reason)")
							return true
						}
						if !spawnObservesStop(c, gs.Call, locals) {
							c.Report(gs, "spawned goroutine does not observe a cooperative-stop signal (atomic.Bool Load, channel receive, or context.Done)")
						}
						return true
					})
					return true
				})
			}
		},
	}
}

// goHygienePkg reports whether the package is under the engine's goroutine
// discipline.
func goHygienePkg(path string) bool {
	return strings.HasSuffix(path, "internal/sqldb") ||
		strings.HasSuffix(path, "internal/core")
}

// localFuncLits maps variable names to the function literals assigned to
// them within the function body.
func localFuncLits(body *ast.BlockStmt) map[string]*ast.FuncLit {
	out := map[string]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			if fl, ok := as.Rhs[i].(*ast.FuncLit); ok {
				out[id.Name] = fl
			}
		}
		return true
	})
	return out
}

// spawnObservesStop reports whether the spawned call's body observes a
// cooperative-stop signal (observesStopSignal, the definition stopflow
// uses), directly or through one level of local function-literal calls.
// `go method()` / `go fn()` of anything but a local literal is outside the
// horizon: sanctioned spawn sites must use the literal form.
func spawnObservesStop(c *Context, call *ast.CallExpr, locals map[string]*ast.FuncLit) bool {
	var body *ast.BlockStmt
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	case *ast.Ident:
		lit := locals[fun.Name]
		if lit == nil {
			return false
		}
		body = lit.Body
	default:
		return false
	}
	if observesStopSignal(c.Pkg, body) {
		return true
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok {
			if id, ok := inner.Fun.(*ast.Ident); ok {
				if lit := locals[id.Name]; lit != nil && observesStopSignal(c.Pkg, lit.Body) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
