package unfold

import (
	"testing"

	"npdbench/internal/analyze"
	"npdbench/internal/r2rml"
	"npdbench/internal/rdf"
	"npdbench/internal/rewrite"
	"npdbench/internal/sqldb"
)

// disjointTemplateMapping maps two properties whose object templates can
// never unify (emp/{id} vs prod/{p} fixtures differ).
func disjointTemplateMapping() *r2rml.Mapping {
	return r2rml.MustParseMapping(`
[PrefixDeclaration]
t: http://t/

[MappingDeclaration]
mappingId worksWith
target    t:emp/{id} t:worksWith t:emp/{mate} .
source    SELECT id, mate FROM colleagues

mappingId sells
target    t:emp/{id} t:sells t:prod/{p} .
source    SELECT id, p FROM sells

mappingId likes
target    t:emp/{id} t:likes t:prod/{p} .
source    SELECT id, p FROM likes

mappingId likes2
target    t:emp/{id} t:likes t:emp/{mate} .
source    SELECT id, mate FROM fans
`)
}

func TestStaticPruneArcConsistency(t *testing.T) {
	// ?y is sold (always t:prod/{p}) and likes-linked; the likes2 candidate
	// produces t:emp/{mate} for ?y, which can never unify with any sells
	// candidate — arc consistency deletes it before the walk.
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("sells", vt("x"), vt("y")),
			propAtom("likes", vt("z"), vt("y")),
		},
		Answer: []string{"x", "y"},
	}
	mp := disjointTemplateMapping()
	off, err := Unfold(rewrite.UCQ{cq}, mp, nil, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Unfold(rewrite.UCQ{cq}, mp, nil, Opts{StaticPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.StaticPrunedCands == 0 {
		t.Fatal("expected statically pruned candidates")
	}
	if off.Arms != on.Arms {
		t.Fatalf("pruning changed the emitted arms: %d vs %d", off.Arms, on.Arms)
	}
	if off.Stmt.String() != on.Stmt.String() {
		t.Fatalf("pruning changed the SQL:\noff: %s\non:  %s", off.Stmt, on.Stmt)
	}
	// The walk-time prune counter shrinks accordingly: the work moved from
	// enumeration to static analysis.
	if on.PrunedArms >= off.PrunedArms {
		t.Fatalf("static pruning did not reduce walk-time pruning: %d vs %d", on.PrunedArms, off.PrunedArms)
	}
}

func TestStaticPruneEmptyCQ(t *testing.T) {
	// ?y both sold (prod template) and worksWith-linked (emp template):
	// every candidate pair is template-disjoint, so the CQ is statically
	// empty and no arm is emitted.
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("sells", vt("x"), vt("y")),
			propAtom("worksWith", vt("z"), vt("y")),
		},
		Answer: []string{"x", "y"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, disjointTemplateMapping(), nil, Opts{StaticPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if un.Stmt != nil || un.Arms != 0 {
		t.Fatalf("expected statically empty result, got %d arms", un.Arms)
	}
	if un.StaticPrunedCands == 0 {
		t.Fatal("expected statically pruned candidates")
	}
}

func TestStaticPruneConstantMismatch(t *testing.T) {
	// A constant subject outside the emp/{id} template shape empties the
	// atom's candidate list without entering the walk.
	cq := &rewrite.CQ{
		Atoms:  []rewrite.Atom{propAtom("sells", ct(rdf.NewIRI("http://t/prod/9")), vt("y"))},
		Answer: []string{"y"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, disjointTemplateMapping(), nil, Opts{StaticPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if un.Stmt != nil || un.StaticPrunedCands == 0 {
		t.Fatalf("expected constant-mismatch prune, got %d arms, %d pruned",
			un.Arms, un.StaticPrunedCands)
	}
}

func TestContradictoryConds(t *testing.T) {
	col := func(name string) sqldb.Expr { return &sqldb.ColRef{Table: "t1", Name: name} }
	lit := func(v sqldb.Value) sqldb.Expr { return &sqldb.Lit{Val: v} }
	bin := func(op sqldb.BinOpKind, l, r sqldb.Expr) sqldb.Expr { return &sqldb.BinOp{Op: op, L: l, R: r} }
	cases := []struct {
		name  string
		conds []sqldb.Expr
		want  bool
	}{
		{"conflicting equalities", []sqldb.Expr{
			bin(sqldb.OpEq, col("kind"), lit(sqldb.NewString("exploration"))),
			bin(sqldb.OpEq, col("kind"), lit(sqldb.NewString("development"))),
		}, true},
		{"equality vs disequality", []sqldb.Expr{
			bin(sqldb.OpEq, col("kind"), lit(sqldb.NewString("a"))),
			bin(sqldb.OpNe, col("kind"), lit(sqldb.NewString("a"))),
		}, true},
		{"equality outside range", []sqldb.Expr{
			bin(sqldb.OpEq, col("year"), lit(sqldb.NewInt(1990))),
			bin(sqldb.OpGt, col("year"), lit(sqldb.NewInt(2000))),
		}, true},
		{"empty range", []sqldb.Expr{
			bin(sqldb.OpGe, col("year"), lit(sqldb.NewInt(2010))),
			bin(sqldb.OpLe, col("year"), lit(sqldb.NewInt(2000))),
		}, true},
		{"flipped literal side", []sqldb.Expr{
			bin(sqldb.OpGt, lit(sqldb.NewInt(2000)), col("year")), // 2000 > year, i.e. year < 2000
			bin(sqldb.OpGt, col("year"), lit(sqldb.NewInt(2010))),
		}, true},
		{"same equality twice is fine", []sqldb.Expr{
			bin(sqldb.OpEq, col("kind"), lit(sqldb.NewString("a"))),
			bin(sqldb.OpEq, col("kind"), lit(sqldb.NewString("a"))),
		}, false},
		{"different columns do not interact", []sqldb.Expr{
			bin(sqldb.OpEq, col("kind"), lit(sqldb.NewString("a"))),
			bin(sqldb.OpEq, col("name"), lit(sqldb.NewString("b"))),
		}, false},
		{"satisfiable range", []sqldb.Expr{
			bin(sqldb.OpGe, col("year"), lit(sqldb.NewInt(2000))),
			bin(sqldb.OpLe, col("year"), lit(sqldb.NewInt(2010))),
		}, false},
		{"incomparable kinds are skipped", []sqldb.Expr{
			bin(sqldb.OpEq, col("kind"), lit(sqldb.NewString("a"))),
			bin(sqldb.OpEq, col("kind"), lit(sqldb.NewInt(1))),
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := contradictoryConds(tc.conds); got != tc.want {
				t.Fatalf("contradictoryConds = %v, want %v", got, tc.want)
			}
		})
	}
}

// exactPredicateMapping exposes the paper-style pattern where saturation
// hoists fragment filters: one table maps to two classes through disjoint
// WHERE fragments on the same column.
func TestStaticContradictionArm(t *testing.T) {
	mp := r2rml.MustParseMapping(`
[PrefixDeclaration]
t: http://t/

[MappingDeclaration]
mappingId expl
target    t:well/{id} a t:Exploration .
source    SELECT id FROM wellbore WHERE kind = 'exploration'

mappingId dev
target    t:well/{id} a t:Development .
source    SELECT id FROM wellbore WHERE kind = 'development'
`)
	db := sqldb.NewDatabase("t")
	if _, err := db.CreateTable(&sqldb.TableDef{
		Name: "wellbore",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt, NotNull: true},
			{Name: "kind", Type: sqldb.TText, NotNull: true},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	cons := analyze.DeriveConstraints(db)
	// Both classes over the same subject: the key-merge hoists the two
	// fragment filters onto one table instance, where kind='exploration'
	// AND kind='development' is a static contradiction.
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			classAtom("Exploration", vt("x")),
			classAtom("Development", vt("x")),
		},
		Answer: []string{"x"},
	}
	off, err := Unfold(rewrite.UCQ{cq}, mp, nil, Opts{Cons: cons})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Unfold(rewrite.UCQ{cq}, mp, nil, Opts{Cons: cons, StaticPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.StaticContradictions == 0 {
		t.Fatal("expected a contradictory arm to be deleted")
	}
	if on.Arms != 0 || on.Stmt != nil {
		t.Fatalf("expected no arms after contradiction pruning, got %d", on.Arms)
	}
	// The unpruned unfolding keeps the contradictory arm (the database
	// would evaluate it to zero rows).
	if off.Arms == 0 {
		t.Fatal("fixture did not produce the contradictory arm")
	}
}
