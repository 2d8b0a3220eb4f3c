package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// passTimingFunnel ports repolint's timing-funnel rule onto the typed
// driver: raw time.Now()/time.Since() calls are reserved to internal/obs
// (the clock funnel); everything else goes through obs.Now/obs.Since so the
// observability layer stays the single timing authority. Resolving the
// callee through the type information kills the old rule's
// false-positive/negative mode: a package imported as anything other than
// "time" is still caught, and a local package named time is not.
func passTimingFunnel() *Pass {
	return &Pass{
		Name: "timingfunnel",
		Doc:  "raw time.Now/time.Since outside the obs clock funnel",
		Sev:  SevWarning,
		Run: func(c *Context) {
			if timingExemptPkg(c.Pkg.Path) {
				return
			}
			for _, file := range c.Pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, ok := c.ObjectOf(sel.Sel).(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
						return true
					}
					if fn.Name() != "Now" && fn.Name() != "Since" {
						return true
					}
					c.Report(call, fmt.Sprintf(
						"raw time.%s call: use obs.%s so timing stays behind the observability funnel",
						fn.Name(), fn.Name()))
					return true
				})
			}
		},
	}
}

// timingExemptPkg reports whether a package may call time.Now/time.Since
// directly: only the obs clock funnel itself.
func timingExemptPkg(path string) bool {
	return strings.HasSuffix(path, "internal/obs")
}
