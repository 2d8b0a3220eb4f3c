package lint

import (
	"go/ast"
	"go/types"
)

// srvhygiene forbids the two http-server shortcuts that do not survive
// production traffic: bare http.ListenAndServe (a server with no read,
// header, or idle timeouts — one slow client holds a connection forever)
// and the package-global http.DefaultServeMux (any imported package can
// register handlers on it; net/http/pprof does exactly that on import).
// Long-running endpoints must build an explicit *http.Server over an
// explicit *http.ServeMux, as cmd/obdaqd's SPARQL endpoint does.
func passSrvHygiene() *Pass {
	p := &Pass{
		Name: "srvhygiene",
		Doc:  "forbid bare http.ListenAndServe and http.DefaultServeMux in server code",
		Sev:  SevWarning,
	}
	p.Run = func(c *Context) {
		for _, file := range c.Pkg.Files {
			ast.Inspect(file, func(node ast.Node) bool {
				sel, ok := node.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := c.ObjectOf(sel.Sel)
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "net/http" {
					return true
				}
				switch o := obj.(type) {
				case *types.Func:
					// Methods ((*http.Server).ListenAndServe) are the fix,
					// not the finding: only package-level functions count.
					if sig, ok := o.Type().(*types.Signature); !ok || sig.Recv() != nil {
						return true
					}
					switch o.Name() {
					case "ListenAndServe", "ListenAndServeTLS":
						c.Report(sel, "bare http."+o.Name()+" has no timeouts; build an explicit *http.Server with Read/Header/Idle timeouts")
					case "Handle", "HandleFunc":
						c.Report(sel, "http."+o.Name()+" registers on the global DefaultServeMux; use an explicit *http.ServeMux")
					}
				case *types.Var:
					if o.Name() == "DefaultServeMux" {
						c.Report(sel, "http.DefaultServeMux is a process-global mux (pprof registers on it via import); use an explicit *http.ServeMux")
					}
				}
				return true
			})
		}
	}
	return p
}
