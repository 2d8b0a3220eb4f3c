package main

import (
	"strings"

	"npdbench/internal/sqldb"
)

// opKinds are the operator kinds the rollup reports, keyed by the Op name
// sqldb puts in its EXPLAIN ANALYZE tree; the value is the metric-name
// segment.
var opKinds = []struct{ op, metric string }{
	{"scan", "scan"},
	{"filter", "filter"},
	{"hash join", "hash_join"},
	{"merge join", "merge_join"},
	{"nested loop", "nested_loop"},
	{"left join", "left_join"},
	{"union", "union"},
	{"distinct", "distinct"},
	{"aggregate", "aggregate"},
	{"sort", "sort"},
}

// opCount is the work of one operator kind.
type opCount struct {
	ops, rowsOut int
}

// rollup is the operator-level summary of a set of statement profiles,
// computed by the harness from the trees the engine hands back.
type rollup struct {
	byKind map[string]*opCount // keyed by the metric segment
	// nestedPairs is the row pairs nested loops examined; zeroKeyNested
	// counts the loops that had no equi-join key to hash on.
	nestedPairs, zeroKeyNested int
	hashBuildRows, hashProbes  int
	rowsScanned                int
	// arms counts union arms; emptyArms those that returned no rows;
	// armUS/emptyArmUS their wall times where the executor timed them.
	arms, emptyArms   int
	armUS, emptyArmUS int64
}

func newRollup() *rollup {
	r := &rollup{byKind: map[string]*opCount{}}
	for _, k := range opKinds {
		r.byKind[k.metric] = &opCount{}
	}
	return r
}

// kindOf maps an operator name to its metric segment ("" = not reported).
func kindOf(p *sqldb.OpProfile) string {
	op := p.Op
	if op == "union all" {
		op = "union"
	}
	for _, k := range opKinds {
		if k.op == op {
			return k.metric
		}
	}
	return ""
}

// add folds one statement's operator tree into the rollup.
func (r *rollup) add(p *sqldb.OpProfile) {
	if p == nil {
		return
	}
	if kind := kindOf(p); kind != "" {
		c := r.byKind[kind]
		c.ops++
		c.rowsOut += p.Rows
		switch kind {
		case "scan":
			r.rowsScanned += p.Rows
		case "nested_loop":
			r.nestedPairs += p.Probes
			if strings.HasPrefix(p.Detail, "0 equi keys") {
				r.zeroKeyNested++
			}
		case "hash_join":
			r.hashBuildRows += p.BuildRows
			r.hashProbes += p.Probes
		case "union":
			r.addArms(p)
		}
	}
	for _, c := range p.Children {
		r.add(c)
	}
}

// addArms counts the arms of a union node. The parallel executor wraps each
// arm in a timed "arm" node; the sequential one lists the arms' "select"
// nodes directly and times nothing.
func (r *rollup) addArms(union *sqldb.OpProfile) {
	for _, c := range union.Children {
		if c.Op != "arm" && c.Op != "select" {
			continue
		}
		r.arms++
		r.armUS += c.TimeUS
		if c.Rows == 0 {
			r.emptyArms++
			r.emptyArmUS += c.TimeUS
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
