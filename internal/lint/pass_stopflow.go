package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// stopflow hardens the cooperative-cancellation contract of the parallel
// executor: a task submitted to the worker pool (a parState.run call) runs
// on a shared goroutine, so any loop it can reach that neither terminates
// by construction (range, three-clause) nor observes the stop signal
// (atomic.Bool Load, channel receive, context.Done) can pin a worker after
// the query is abandoned. The pass resolves the task argument of every
// pool submission, follows the call graph from it, and reports the spin
// loops the summaries recorded along the way, plus the loops written
// directly in a task literal.
func passStopFlow() *Pass {
	p := &Pass{
		Name: "stopflow",
		Doc:  "pool-submitted task loops must observe the cooperative-stop signal",
		Sev:  SevError,
	}
	p.Run = func(c *Context) {
		seen := map[string]bool{}
		reportSpin := func(pos ast.Node, via string) {
			key := c.Fset.Position(pos.Pos()).String()
			if seen[key] {
				return
			}
			seen[key] = true
			msg := "loop reachable from a pool-submitted task may spin without observing the stop signal"
			if via != "" {
				msg += " (task calls " + via + ")"
			}
			c.Report(pos, msg)
		}
		for _, file := range c.Pkg.Files {
			ast.Inspect(file, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				task := poolTaskArg(c, call)
				if task == nil {
					return true
				}
				switch t := ast.Unparen(task).(type) {
				case *ast.FuncLit:
					// Loops written in the literal itself.
					for _, loop := range spinLoopsIn(c.Pkg, t.Body) {
						reportSpin(loop, "")
					}
					// Loops in module functions the literal references.
					for _, root := range referencedFuncs(c, t.Body) {
						reportReachableSpins(c, root, reportSpin)
					}
				default:
					if fn := taskExprFunc(c, t); fn != nil {
						reportReachableSpins(c, fn, reportSpin)
					}
				}
				return true
			})
		}
	}
	return p
}

// poolTaskArg recognizes a worker-pool submission — a call to a method
// named "run" on a value of a named type "parState" — and returns its
// function-typed task argument.
func poolTaskArg(c *Context, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "run" {
		return nil
	}
	n := namedType(c.TypeOf(sel.X))
	if n == nil || n.Obj().Name() != "parState" {
		return nil
	}
	for _, a := range call.Args {
		if t := c.TypeOf(a); t != nil {
			if _, isFunc := t.Underlying().(*types.Signature); isFunc {
				return a
			}
		}
	}
	return nil
}

// taskExprFunc resolves a task expression (identifier, selector, or method
// value) to a declared module function.
func taskExprFunc(c *Context, e ast.Expr) *FuncNode {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = c.Pkg.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = c.Pkg.Info.Uses[x.Sel]
	}
	fn, _ := obj.(*types.Func)
	return c.Interp.Graph.Lookup(fn)
}

// referencedFuncs lists the module functions a task body references, in
// first-use order.
func referencedFuncs(c *Context, body ast.Node) []*FuncNode {
	var out []*FuncNode
	dup := map[*FuncNode]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := c.Pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if n := c.Interp.Graph.Lookup(fn); n != nil && !dup[n] {
			dup[n] = true
			out = append(out, n)
		}
		return true
	})
	return out
}

// reportReachableSpins reports every spin loop recorded in the summaries
// of the closure reachable from root.
func reportReachableSpins(c *Context, root *FuncNode, report func(ast.Node, string)) {
	reach := c.Interp.Graph.Reachable([]*FuncNode{root})
	var nodes []*FuncNode
	for n := range reach {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return funcKey(nodes[i].Fn) < funcKey(nodes[j].Fn) })
	for _, n := range nodes {
		sum := c.Interp.SummaryOf(n.Fn)
		if sum == nil {
			continue
		}
		for _, pos := range sum.SpinLoops {
			via := ""
			if n != root {
				via = n.Fn.Name()
			} else if root.Fn != nil {
				via = root.Fn.Name()
			}
			report(posSpan{pos}, via)
		}
	}
}

// posSpan wraps a recorded token position in a reportable ast.Node.
type posSpan struct{ pos token.Pos }

func (s posSpan) Pos() token.Pos { return s.pos }
func (s posSpan) End() token.Pos { return s.pos }
