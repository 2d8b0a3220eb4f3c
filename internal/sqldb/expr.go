package sqldb

import (
	"fmt"
	"math"
	"strings"
)

// colMeta names one column of an intermediate relation. Both fields are
// lower-cased; table holds the alias qualifier ("" for computed columns).
type colMeta struct {
	table, name string
}

// findCol resolves a column reference against a relation layout. It returns
// the slot or -1. Ambiguous unqualified names resolve to the first match
// (MySQL-style leniency; the OBDA unfolder always emits qualified names).
func findCol(cols []colMeta, table, name string) int {
	lt, ln := strings.ToLower(table), strings.ToLower(name)
	for i, c := range cols {
		if c.name != ln {
			continue
		}
		if lt == "" || c.table == lt {
			return i
		}
	}
	return -1
}

// evalFn computes an expression over a row.
type evalFn func(Row) (Value, error)

// bindExpr compiles an expression against a relation layout: it resolves
// every column reference to a slot and returns the evaluator the *Eval
// constructors below build, which reads rows only.
func bindExpr(e Expr, cols []colMeta) (evalFn, error) {
	switch x := e.(type) {
	case *Lit:
		return litEval(x), nil
	case *ColRef:
		slot := findCol(cols, x.Table, x.Name)
		if slot < 0 {
			return nil, fmt.Errorf("sqldb: unknown column %s", x)
		}
		return slotEval(slot), nil
	case *BinOp:
		l, err := bindExpr(x.L, cols)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(x.R, cols)
		if err != nil {
			return nil, err
		}
		return binOpEval(x.Op, l, r), nil
	case *NotExpr:
		inner, err := bindExpr(x.E, cols)
		if err != nil {
			return nil, err
		}
		return notEval(inner), nil
	case *IsNullExpr:
		inner, err := bindExpr(x.E, cols)
		if err != nil {
			return nil, err
		}
		return isNullEval(inner, x.Negate), nil
	case *InExpr:
		inner, err := bindExpr(x.E, cols)
		if err != nil {
			return nil, err
		}
		items := make([]evalFn, len(x.List))
		for i, it := range x.List {
			f, err := bindExpr(it, cols)
			if err != nil {
				return nil, err
			}
			items[i] = f
		}
		return inEval(inner, items, x.Negate), nil
	case *LikeExpr:
		inner, err := bindExpr(x.E, cols)
		if err != nil {
			return nil, err
		}
		pat, err := bindExpr(x.Pattern, cols)
		if err != nil {
			return nil, err
		}
		return likeEval(inner, pat, x.Negate), nil
	case *FuncExpr:
		if isAggregateName(x.Name) {
			return nil, fmt.Errorf("sqldb: aggregate %s not allowed here", x.Name)
		}
		return bindScalarFunc(x, cols)
	}
	return nil, fmt.Errorf("sqldb: cannot bind expression %T", e)
}

// litEval reads the immutable literal node, which keeps the closure small:
// a prepared plan retains one per literal.
func litEval(x *Lit) evalFn {
	return func(Row) (Value, error) { return x.Val, nil }
}

func slotEval(slot int) evalFn {
	return func(r Row) (Value, error) { return r[slot], nil }
}

func binOpEval(op BinOpKind, l, r evalFn) evalFn {
	return func(row Row) (Value, error) {
		return applyBinOp(op, l, r, row)
	}
}

func notEval(inner evalFn) evalFn {
	return func(row Row) (Value, error) {
		v, err := inner(row)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			return Null, nil
		}
		return NewBool(!v.Bool()), nil
	}
}

func isNullEval(inner evalFn, neg bool) evalFn {
	return func(row Row) (Value, error) {
		v, err := inner(row)
		if err != nil {
			return Null, err
		}
		return NewBool(v.IsNull() != neg), nil
	}
}

func inEval(inner evalFn, items []evalFn, neg bool) evalFn {
	return func(row Row) (Value, error) {
		v, err := inner(row)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			return Null, nil
		}
		sawNull := false
		for _, f := range items {
			iv, err := f(row)
			if err != nil {
				return Null, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if Equal(v, iv) {
				return NewBool(!neg), nil
			}
		}
		if sawNull {
			return Null, nil
		}
		return NewBool(neg), nil
	}
}

func likeEval(inner, pat evalFn, neg bool) evalFn {
	return func(row Row) (Value, error) {
		v, err := inner(row)
		if err != nil {
			return Null, err
		}
		pv, err := pat(row)
		if err != nil {
			return Null, err
		}
		if v.IsNull() || pv.IsNull() {
			return Null, nil
		}
		ok := likeMatch(v.String(), pv.String())
		return NewBool(ok != neg), nil
	}
}

func applyBinOp(op BinOpKind, l, r evalFn, row Row) (Value, error) {
	lv, err := l(row)
	if err != nil {
		return Null, err
	}
	// Short-circuit three-valued logic for AND/OR.
	switch op {
	case OpAnd:
		if !lv.IsNull() && !lv.Bool() {
			return NewBool(false), nil
		}
		rv, err := r(row)
		if err != nil {
			return Null, err
		}
		if !rv.IsNull() && !rv.Bool() {
			return NewBool(false), nil
		}
		if lv.IsNull() || rv.IsNull() {
			return Null, nil
		}
		return NewBool(true), nil
	case OpOr:
		if !lv.IsNull() && lv.Bool() {
			return NewBool(true), nil
		}
		rv, err := r(row)
		if err != nil {
			return Null, err
		}
		if !rv.IsNull() && rv.Bool() {
			return NewBool(true), nil
		}
		if lv.IsNull() || rv.IsNull() {
			return Null, nil
		}
		return NewBool(false), nil
	}
	rv, err := r(row)
	if err != nil {
		return Null, err
	}
	if lv.IsNull() || rv.IsNull() {
		return Null, nil
	}
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		c, err := Compare(lv, rv)
		if err != nil {
			// Incomparable kinds: SQL engines coerce; we return FALSE (a
			// mapping-template mismatch, pruned upstream in OBDA).
			return NewBool(false), nil
		}
		var ok bool
		switch op {
		case OpEq:
			ok = c == 0
		case OpNe:
			ok = c != 0
		case OpLt:
			ok = c < 0
		case OpLe:
			ok = c <= 0
		case OpGt:
			ok = c > 0
		case OpGe:
			ok = c >= 0
		}
		return NewBool(ok), nil
	case OpConcat:
		return NewString(lv.String() + rv.String()), nil
	case OpAdd, OpSub, OpMul, OpDiv:
		if lv.Kind == KindInt && rv.Kind == KindInt && op != OpDiv {
			switch op {
			case OpAdd:
				return NewInt(lv.I + rv.I), nil
			case OpSub:
				return NewInt(lv.I - rv.I), nil
			case OpMul:
				return NewInt(lv.I * rv.I), nil
			}
		}
		lf, ok1 := lv.AsFloat()
		rf, ok2 := rv.AsFloat()
		if !ok1 || !ok2 {
			return Null, fmt.Errorf("sqldb: arithmetic on non-numeric values %s, %s", lv.Kind, rv.Kind)
		}
		switch op {
		case OpAdd:
			return NewFloat(lf + rf), nil
		case OpSub:
			return NewFloat(lf - rf), nil
		case OpMul:
			return NewFloat(lf * rf), nil
		case OpDiv:
			if rf == 0 {
				return Null, nil
			}
			return NewFloat(lf / rf), nil
		}
	}
	return Null, fmt.Errorf("sqldb: unsupported operator %s", op)
}

// likeMatch implements SQL LIKE with % (any sequence) and _ (any char).
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// collapse consecutive %
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || !equalFoldByte(s[0], p[0]) {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func equalFoldByte(a, b byte) bool {
	if a >= 'A' && a <= 'Z' {
		a += 'a' - 'A'
	}
	if b >= 'A' && b <= 'Z' {
		b += 'a' - 'A'
	}
	return a == b
}

func isAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// exprHasAggregate reports whether the expression contains an aggregate call.
func exprHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncExpr:
		if isAggregateName(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *BinOp:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *NotExpr:
		return exprHasAggregate(x.E)
	case *IsNullExpr:
		return exprHasAggregate(x.E)
	case *InExpr:
		if exprHasAggregate(x.E) {
			return true
		}
		for _, it := range x.List {
			if exprHasAggregate(it) {
				return true
			}
		}
	case *LikeExpr:
		return exprHasAggregate(x.E) || exprHasAggregate(x.Pattern)
	}
	return false
}

func bindScalarFunc(x *FuncExpr, cols []colMeta) (evalFn, error) {
	args := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		f, err := bindExpr(a, cols)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sqldb: %s expects %d arguments, got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "UPPER":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return v, err
			}
			return NewString(strings.ToUpper(v.String())), nil
		}, nil
	case "LOWER":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return v, err
			}
			return NewString(strings.ToLower(v.String())), nil
		}, nil
	case "LENGTH":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return v, err
			}
			return NewInt(int64(len(v.String()))), nil
		}, nil
	case "ABS":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return v, err
			}
			switch v.Kind {
			case KindInt:
				if v.I < 0 {
					return NewInt(-v.I), nil
				}
				return v, nil
			case KindFloat:
				return NewFloat(math.Abs(v.F)), nil
			}
			return Null, fmt.Errorf("sqldb: ABS of %s", v.Kind)
		}, nil
	case "COALESCE":
		return func(r Row) (Value, error) {
			for _, f := range args {
				v, err := f(r)
				if err != nil {
					return Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return Null, nil
		}, nil
	case "CONCAT":
		return func(r Row) (Value, error) {
			var sb strings.Builder
			for _, f := range args {
				v, err := f(r)
				if err != nil {
					return Null, err
				}
				if v.IsNull() {
					return Null, nil
				}
				sb.WriteString(v.String())
			}
			return NewString(sb.String()), nil
		}, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("sqldb: SUBSTR expects 2 or 3 arguments")
		}
		return func(r Row) (Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return v, err
			}
			startV, err := args[1](r)
			if err != nil || startV.IsNull() {
				return Null, err
			}
			s := v.String()
			start, _ := startV.AsInt()
			if start < 1 {
				start = 1
			}
			if int(start) > len(s) {
				return NewString(""), nil
			}
			rest := s[start-1:]
			if len(args) == 3 {
				lenV, err := args[2](r)
				if err != nil || lenV.IsNull() {
					return Null, err
				}
				n, _ := lenV.AsInt()
				if n < 0 {
					n = 0
				}
				if int(n) < len(rest) {
					rest = rest[:n]
				}
			}
			return NewString(rest), nil
		}, nil
	case "YEAR":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			v, err := args[0](r)
			if err != nil || v.IsNull() {
				return v, err
			}
			switch v.Kind {
			case KindDate:
				y, _, _ := civilFromDays(v.I)
				return NewInt(int64(y)), nil
			case KindInt:
				return v, nil
			}
			return Null, fmt.Errorf("sqldb: YEAR of %s", v.Kind)
		}, nil
	}
	return nil, fmt.Errorf("sqldb: unknown function %s", x.Name)
}
