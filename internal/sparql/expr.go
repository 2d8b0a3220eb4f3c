package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"npdbench/internal/rdf"
)

// Expr is a SPARQL expression (filters, select bindings, aggregates).
type Expr interface {
	fmt.Stringer
	sparqlExpr()
}

// VarExpr references a variable.
type VarExpr struct{ Name string }

// TermExpr is a constant RDF term.
type TermExpr struct{ Term rdf.Term }

// BinExpr is a binary operation.
type BinExpr struct {
	Op   string // "||" "&&" "=" "!=" "<" "<=" ">" ">=" "+" "-" "*" "/"
	L, R Expr
}

// NotExpr negates a boolean expression.
type NotExpr struct{ E Expr }

// CallExpr is a builtin call: BOUND, STR, LANG, DATATYPE, REGEX.
type CallExpr struct {
	Name string // upper-cased
	Args []Expr
}

// AggExpr is an aggregate: COUNT/SUM/AVG/MIN/MAX, possibly DISTINCT;
// Star marks COUNT(*).
type AggExpr struct {
	Name     string
	Arg      Expr
	Distinct bool
	Star     bool
}

func (*VarExpr) sparqlExpr()  {}
func (*TermExpr) sparqlExpr() {}
func (*BinExpr) sparqlExpr()  {}
func (*NotExpr) sparqlExpr()  {}
func (*CallExpr) sparqlExpr() {}
func (*AggExpr) sparqlExpr()  {}

func (e *VarExpr) String() string  { return "?" + e.Name }
func (e *TermExpr) String() string { return e.Term.String() }
func (e *BinExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}
func (e *NotExpr) String() string { return "!(" + e.E.String() + ")" }
func (e *CallExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}
func (e *AggExpr) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Name + "(" + d + e.Arg.String() + ")"
}

func exprHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *AggExpr:
		return true
	case *BinExpr:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *NotExpr:
		return exprHasAggregate(x.E)
	case *CallExpr:
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	}
	return false
}

// ExprVars returns the variables mentioned by an expression.
func ExprVars(e Expr) []string {
	set := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *VarExpr:
			set[x.Name] = true
		case *BinExpr:
			walk(x.L)
			walk(x.R)
		case *NotExpr:
			walk(x.E)
		case *CallExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *AggExpr:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	return out
}

// Binding is the expression evaluator's view of one solution: a row of
// terms over the query's variable index. A variable outside the index, or
// in a slot holding the zero Term, is unbound.
type Binding struct {
	Vars *VarIndex
	Row  []rdf.Term
}

func (b Binding) lookup(name string) (rdf.Term, bool) {
	if b.Vars != nil {
		if i, ok := b.Vars.slots[name]; ok && i < len(b.Row) && !b.Row[i].IsZero() {
			return b.Row[i], true
		}
	}
	return rdf.Term{}, false
}

// errTypeError marks SPARQL type errors, which make filters eliminate the
// solution (per the spec) rather than abort evaluation.
var errTypeError = fmt.Errorf("sparql: type error")

// EvalExpr evaluates a non-aggregate expression under a binding. A type
// error is reported via errTypeError so callers can apply filter semantics.
func EvalExpr(e Expr, b Binding) (rdf.Term, error) {
	switch x := e.(type) {
	case *VarExpr:
		t, ok := b.lookup(x.Name)
		if !ok {
			return rdf.Term{}, errTypeError
		}
		return t, nil
	case *TermExpr:
		return x.Term, nil
	case *NotExpr:
		v, err := EvalExpr(x.E, b)
		if err != nil {
			return rdf.Term{}, err
		}
		tb, err := ebv(v)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(!tb), nil
	case *CallExpr:
		return evalCall(x, b)
	case *BinExpr:
		return evalBin(x, b)
	case *AggExpr:
		return rdf.Term{}, fmt.Errorf("sparql: aggregate in scalar context")
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown expression %T", e)
}

func evalCall(x *CallExpr, b Binding) (rdf.Term, error) {
	if n := len(x.Args); n == 0 || x.Name == "REGEX" && n < 2 || x.Name != "REGEX" && n != 1 {
		return rdf.Term{}, fmt.Errorf("sparql: %s arity", x.Name)
	}
	if x.Name == "BOUND" {
		v, ok := x.Args[0].(*VarExpr)
		if !ok {
			return rdf.Term{}, fmt.Errorf("sparql: BOUND requires a variable")
		}
		_, bound := b.lookup(v.Name)
		return boolTerm(bound), nil
	}
	v, err := EvalExpr(x.Args[0], b)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Name {
	case "STR":
		return rdf.NewLiteral(v.Value), nil
	case "LANG":
		return rdf.NewLiteral(v.Lang), nil
	case "DATATYPE":
		if v.Datatype == "" {
			return rdf.NewIRI(rdf.XSDString), nil
		}
		return rdf.NewIRI(v.Datatype), nil
	case "REGEX":
		p, err := EvalExpr(x.Args[1], b)
		if err != nil {
			return rdf.Term{}, err
		}
		// substring semantics without flags (sufficient for the benchmark)
		return boolTerm(strings.Contains(strings.ToLower(v.Value), strings.ToLower(p.Value))), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown function %s", x.Name)
}

func evalBin(x *BinExpr, b Binding) (rdf.Term, error) {
	switch x.Op {
	case "&&", "||":
		// Three-valued logic: an operand that decides the result (false
		// for &&, true for ||) wins over a type error in the other.
		decisive := x.Op == "||"
		lv, lerr := evalBool(x.L, b)
		rv, rerr := evalBool(x.R, b)
		if lerr == nil && lv == decisive || rerr == nil && rv == decisive {
			return boolTerm(decisive), nil
		}
		if lerr != nil {
			return rdf.Term{}, lerr
		}
		if rerr != nil {
			return rdf.Term{}, rerr
		}
		return boolTerm(!decisive), nil
	}
	lv, err := EvalExpr(x.L, b)
	if err != nil {
		return rdf.Term{}, err
	}
	rv, err := EvalExpr(x.R, b)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		c, err := CompareTermsSPARQL(lv, rv)
		if err != nil {
			if x.Op == "=" {
				return boolTerm(lv == rv), nil
			}
			if x.Op == "!=" {
				return boolTerm(lv != rv), nil
			}
			return rdf.Term{}, err
		}
		var ok bool
		switch x.Op {
		case "=":
			ok = c == 0
		case "!=":
			ok = c != 0
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		}
		return boolTerm(ok), nil
	case "+", "-", "*", "/":
		lf, lok := NumericValue(lv)
		rf, rok := NumericValue(rv)
		if !lok || !rok {
			return rdf.Term{}, errTypeError
		}
		var out float64
		switch x.Op {
		case "+":
			out = lf + rf
		case "-":
			out = lf - rf
		case "*":
			out = lf * rf
		case "/":
			if rf == 0 {
				return rdf.Term{}, errTypeError
			}
			out = lf / rf
		}
		if out == float64(int64(out)) && isIntegerTyped(lv) && isIntegerTyped(rv) {
			return rdf.NewInteger(int64(out)), nil
		}
		return rdf.NewTypedLiteral(strconv.FormatFloat(out, 'g', -1, 64), rdf.XSDDouble), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown operator %q", x.Op)
}

func evalBool(e Expr, b Binding) (bool, error) {
	v, err := EvalExpr(e, b)
	if err != nil {
		return false, err
	}
	return ebv(v)
}

// ebv computes the SPARQL effective boolean value.
func ebv(t rdf.Term) (bool, error) {
	if t.Kind != rdf.Literal {
		return false, errTypeError
	}
	switch t.Datatype {
	case rdf.XSDBoolean:
		return t.Value == "true" || t.Value == "1", nil
	case "", rdf.XSDString:
		return t.Value != "", nil
	}
	if f, ok := NumericValue(t); ok {
		return f != 0, nil
	}
	return false, errTypeError
}

func boolTerm(b bool) rdf.Term {
	if b {
		return rdf.NewTypedLiteral("true", rdf.XSDBoolean)
	}
	return rdf.NewTypedLiteral("false", rdf.XSDBoolean)
}

// NumericValue extracts a numeric interpretation of a literal; plain
// literals that parse as numbers are accepted (lenient, matching how the
// benchmark's queries compare years stored as strings).
func NumericValue(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

func isIntegerTyped(t rdf.Term) bool {
	if t.Datatype == rdf.XSDInteger {
		return true
	}
	if t.Datatype != "" && t.Datatype != rdf.XSDString {
		return false
	}
	_, err := strconv.ParseInt(strings.TrimSpace(t.Value), 10, 64)
	return err == nil
}

// CompareTermsSPARQL compares two terms under SPARQL ordering: numerics by
// value, strings lexicographically, IRIs lexicographically. Cross-category
// comparisons yield an error (filter type error).
func CompareTermsSPARQL(a, b rdf.Term) (int, error) {
	if a.Kind == rdf.Literal && b.Kind == rdf.Literal {
		af, aok := NumericValue(a)
		bf, bok := NumericValue(b)
		if aok && bok {
			switch {
			case af < bf:
				return -1, nil
			case af > bf:
				return 1, nil
			}
			return 0, nil
		}
		if aok != bok {
			return 0, errTypeError
		}
		return strings.Compare(a.Value, b.Value), nil
	}
	if a.Kind == b.Kind {
		return strings.Compare(a.Value, b.Value), nil
	}
	return 0, errTypeError
}
