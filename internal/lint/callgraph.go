package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// The call graph is the engine's interprocedural backbone: one node per
// declared function or method with a body anywhere in the module, and one
// edge per statically resolvable reference from a body to another node —
// direct calls, method calls, and function values passed or stored (a
// reference can become a call the analysis cannot see, so reachability
// treats it as one). Calls inside function literals are attributed to the
// enclosing declaration: the literal runs with the declaration's state and
// its locks and loops belong to the declaration.
//
// Dynamic dispatch (interface method calls, calls through function-typed
// values) has no static callee and produces no edge. Passes that consume
// the graph are written for that asymmetry: a missing edge can hide a
// finding, never invent one.

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Callees are the statically resolved module functions this body
	// references, deduplicated, in first-reference order.
	Callees []*FuncNode

	scc int // SCC id, assigned in reverse topological order (callees first)
}

// CallGraph is the module-wide graph plus the traversal orders the summary
// builder needs.
type CallGraph struct {
	Nodes map[*types.Func]*FuncNode
	// BottomUp lists every node so that all statically known callees of a
	// node appear before the node itself (members of one cycle appear
	// adjacent, in deterministic order).
	BottomUp []*FuncNode
}

// buildCallGraph walks every function body of every package and resolves
// its references.
func buildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*FuncNode{}}
	// First pass: one node per declaration.
	var order []*FuncNode
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.Nodes[fn] = n
				order = append(order, n)
			}
		}
	}
	// Second pass: edges. Every identifier or selector resolving to a
	// declared module function counts, whether in call position or as a
	// value.
	for _, n := range order {
		seen := map[*FuncNode]bool{}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			var obj types.Object
			switch x := node.(type) {
			case *ast.Ident:
				obj = n.Pkg.Info.Uses[x]
			case *ast.SelectorExpr:
				obj = n.Pkg.Info.Uses[x.Sel]
			default:
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			if callee := g.Nodes[fn]; callee != nil && callee != n && !seen[callee] {
				seen[callee] = true
				n.Callees = append(n.Callees, callee)
			}
			return true
		})
	}
	g.condense(order)
	return g
}

// condense runs Tarjan's SCC algorithm and records the bottom-up order:
// Tarjan emits each strongly connected component only after every
// component it calls into, so concatenating components in emission order
// gives the summary builder its callees-first traversal.
func (g *CallGraph) condense(order []*FuncNode) {
	index := map[*FuncNode]int{}
	low := map[*FuncNode]int{}
	onStack := map[*FuncNode]bool{}
	var stack []*FuncNode
	next, sccID := 0, 0

	var strongConnect func(n *FuncNode)
	strongConnect = func(n *FuncNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, c := range n.Callees {
			if _, seen := index[c]; !seen {
				strongConnect(c)
				if low[c] < low[n] {
					low[n] = low[c]
				}
			} else if onStack[c] && index[c] < low[n] {
				low[n] = index[c]
			}
		}
		if low[n] == index[n] {
			var comp []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return funcKey(comp[i].Fn) < funcKey(comp[j].Fn) })
			for _, m := range comp {
				m.scc = sccID
				g.BottomUp = append(g.BottomUp, m)
			}
			sccID++
		}
	}
	for _, n := range order {
		if _, seen := index[n]; !seen {
			strongConnect(n)
		}
	}
}

// SameCycle reports whether a and b sit on one call cycle.
func (g *CallGraph) SameCycle(a, b *FuncNode) bool {
	return a != nil && b != nil && a.scc == b.scc
}

// Reachable returns the forward closure of the given roots (roots
// included), following every edge.
func (g *CallGraph) Reachable(roots []*FuncNode) map[*FuncNode]bool {
	out := map[*FuncNode]bool{}
	var visit func(n *FuncNode)
	visit = func(n *FuncNode) {
		if n == nil || out[n] {
			return
		}
		out[n] = true
		for _, c := range n.Callees {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return out
}

// Lookup resolves a types.Func to its node (nil for functions without a
// body in the module: externals, interface methods, declarations only).
func (g *CallGraph) Lookup(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn]
}

// funcKey renders a deterministic sort key for a function across packages.
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	return pkg + "." + fn.FullName()
}

// callee resolves the statically known callee of a call expression using
// the package's type information (nil for builtins, conversions, and
// dynamic calls).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
