package mixer

import (
	"fmt"
	"strings"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/owl"
	"npdbench/internal/rdf"
	"npdbench/internal/refbench"
	"npdbench/internal/rewrite"
	"npdbench/internal/sparql"
	"npdbench/internal/sqldb"
	"npdbench/internal/vig"
)

// ---------------------------------------------------------------- Table 3

// Table3 renders the paper's Table 3: statistics of the five prior
// benchmark ontologies and their query sets.
func Table3() (string, error) {
	tw := newTextTable("name", "#classes", "#obj_prop", "#data_prop", "#i-axioms", "max#joins", "max#opt", "max#tw")
	for _, b := range refbench.All() {
		row, err := refbench.Table3(b)
		if err != nil {
			return "", err
		}
		tw.add(row.Name,
			fmt.Sprint(row.Classes), fmt.Sprint(row.ObjProps), fmt.Sprint(row.DataProps),
			fmt.Sprint(row.InclusionAxioms),
			fmt.Sprint(row.MaxJoins), fmt.Sprint(row.MaxOptionals), fmt.Sprint(row.MaxTreeWitness))
	}
	return "Table 3: prior benchmark ontologies (statistics)\n" + tw.String(), nil
}

// ---------------------------------------------------------------- Table 7

// Table7Row carries one query's structural statistics.
type Table7Row struct {
	QueryID       string
	Joins         int
	TreeWitnesses int
	MaxSubclasses int
	Optionals     int
	Aggregate     bool
	Filter        bool
	Modifiers     bool
}

// Table7Rows computes the per-query statistics of the 21 NPD queries.
func Table7Rows() ([]Table7Row, error) {
	onto := npd.NewOntology()
	rw := &rewrite.Rewriter{Onto: onto, Existential: true}
	var rows []Table7Row
	for _, q := range npd.Queries() {
		parsed, err := sparql.Parse(q.SPARQL, npd.Prefixes())
		if err != nil {
			return nil, fmt.Errorf("mixer: %s: %w", q.ID, err)
		}
		st := parsed.ComputeStats()
		row := Table7Row{
			QueryID:       q.ID,
			Joins:         st.Joins,
			Optionals:     st.Optionals,
			Aggregate:     st.HasAggregate,
			Filter:        st.HasFilter,
			Modifiers:     parsed.Distinct || len(parsed.OrderBy) > 0 || parsed.Limit >= 0,
			MaxSubclasses: maxSubclasses(onto, parsed),
			TreeWitnesses: queryTreeWitnesses(rw, onto, parsed),
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table7 renders the statistics table.
func Table7() (string, error) {
	rows, err := Table7Rows()
	if err != nil {
		return "", err
	}
	tw := newTextTable("query", "#join", "#tw", "max(#subcls)", "#opts", "Agg", "Filt.", "Mod.")
	yn := func(b bool) string {
		if b {
			return "Y"
		}
		return "N"
	}
	for _, r := range rows {
		tw.add(r.QueryID, fmt.Sprint(r.Joins), fmt.Sprint(r.TreeWitnesses),
			fmt.Sprint(r.MaxSubclasses), fmt.Sprint(r.Optionals),
			yn(r.Aggregate), yn(r.Filter), yn(r.Modifiers))
	}
	return "Table 7: statistics for the 21 benchmark queries\n" + tw.String(), nil
}

// maxSubclasses returns the largest subclass-expansion factor over the
// query's class atoms (the paper's max(#subcls) column).
func maxSubclasses(onto *owl.Ontology, q *sparql.Query) int {
	max := 0
	var walk func(p sparql.GraphPattern)
	walk = func(p sparql.GraphPattern) {
		switch x := p.(type) {
		case *sparql.BGP:
			for _, tp := range x.Triples {
				if tp.P.IsVar() || tp.P.Term.Value != rdf.RDFType || tp.O.IsVar() {
					continue
				}
				n := len(onto.SubConceptsOf(owl.NamedConcept(tp.O.Term.Value)))
				if n > max {
					max = n
				}
			}
		case *sparql.Group:
			for _, part := range x.Parts {
				walk(part)
			}
		case *sparql.Filter:
			walk(x.Inner)
		case *sparql.Optional:
			walk(x.Left)
			walk(x.Right)
		case *sparql.Union:
			walk(x.Left)
			walk(x.Right)
		}
	}
	walk(q.Pattern)
	return max
}

// queryTreeWitnesses sums tree witnesses over the query's BGP leaves.
func queryTreeWitnesses(rw *rewrite.Rewriter, onto *owl.Ontology, q *sparql.Query) int {
	total := 0
	var walk func(p sparql.GraphPattern)
	walk = func(p sparql.GraphPattern) {
		switch x := p.(type) {
		case *sparql.BGP:
			var answer []string
			for _, v := range sparql.PatternVars(x) {
				if !strings.HasPrefix(v, "_bn") {
					answer = append(answer, v)
				}
			}
			cq, err := rewrite.FromBGP(x, onto, answer)
			if err != nil {
				return
			}
			res, err := rw.Rewrite(cq, answer)
			if err != nil {
				return
			}
			total += res.TreeWitnesses
		case *sparql.Group:
			for _, part := range x.Parts {
				walk(part)
			}
		case *sparql.Filter:
			walk(x.Inner)
		case *sparql.Optional:
			walk(x.Left)
			walk(x.Right)
		case *sparql.Union:
			walk(x.Left)
			walk(x.Right)
		}
	}
	walk(q.Pattern)
	return total
}

// ---------------------------------------------------------------- Table 8

// Table8 runs the VIG-vs-random growth validation of Sect. 5.2.
func Table8(seedScale float64, seed int64, growths []float64) (string, error) {
	onto := npd.NewOntology()
	mapping := npd.NewMapping()
	validator := &vig.GrowthValidator{
		Onto:    onto,
		Mapping: mapping,
		NewSeed: func() (*sqldb.Database, error) {
			return npd.NewSeededDatabase(npd.SeedConfig{Scale: seedScale, Seed: seed})
		},
	}
	heuristic, err := validator.Run("heuristic", vig.VIGFunc(seed), growths)
	if err != nil {
		return "", err
	}
	random, err := validator.Run("random", vig.RandomFunc(seed), growths)
	if err != nil {
		return "", err
	}
	byKey := func(rows []vig.GrowthRow) map[string]vig.GrowthRow {
		m := make(map[string]vig.GrowthRow)
		for _, r := range rows {
			m[fmt.Sprintf("%s_npd%g", r.Kind, 1+r.Growth)] = r
		}
		return m
	}
	h, r := byKey(heuristic), byKey(random)
	tw := newTextTable("type_db", "avgdev heur", "avgdev rand", "err>50% heur", "err>50% rand", "err>50%rel heur", "err>50%rel rand")
	for _, g := range growths {
		for _, kind := range []vig.ElementKind{vig.KindClass, vig.KindObj, vig.KindData} {
			key := fmt.Sprintf("%s_npd%g", kind, 1+g)
			hr, rr := h[key], r[key]
			tw.add(key,
				fmt.Sprintf("%.2f%%", hr.AvgDeviation*100),
				fmt.Sprintf("%.2f%%", rr.AvgDeviation*100),
				fmt.Sprint(hr.Err50), fmt.Sprint(rr.Err50),
				fmt.Sprintf("%.2f%%", hr.Err50Ratio()*100),
				fmt.Sprintf("%.2f%%", rr.Err50Ratio()*100))
		}
	}
	return "Table 8: VIG (heuristic) vs random generator — virtual growth quality\n" + tw.String(), nil
}

// ----------------------------------------------------- Tables 9/10, Fig. 1

// TractableTable renders the Table 9/10 shape for one profile: per scale,
// avg execution time, avg result-translation time, avg result size, QMpH
// and the virtual triple count.
func TractableTable(rep *Report, caption string) string {
	tw := newTextTable("db", "avg(ex_time)", "avg(out_time)", "avg(res_size)", "qmph", "#(triples)")
	for _, sm := range rep.Scales {
		var exec, out int64
		var rows float64
		for _, q := range sm.Queries {
			exec += q.AvgExec.Microseconds()
			out += q.AvgTranslate.Microseconds()
			rows += q.AvgRows
		}
		n := int64(len(sm.Queries))
		if n == 0 {
			n = 1
		}
		tw.add(fmt.Sprintf("NPD%g", sm.Scale),
			fmt.Sprintf("%.2fms", float64(exec/n)/1000),
			fmt.Sprintf("%.2fms", float64(out/n)/1000),
			fmt.Sprintf("%.1f", rows/float64(n)),
			fmt.Sprintf("%.1f", sm.QMPH),
			fmt.Sprint(sm.Triples))
	}
	return caption + "\n" + tw.String()
}

// Figure1 runs the QMpH sweep for both profiles and renders the series
// (the paper's Figure 1, log-scale QMpH of the two backends).
func Figure1(cfg Config) (string, error) {
	cfgHash := cfg
	cfgHash.Profile = sqldb.ProfileHashJoin
	repHash, err := Run(cfgHash)
	if err != nil {
		return "", err
	}
	cfgMerge := cfg
	cfgMerge.Profile = sqldb.ProfileSortMerge
	repMerge, err := Run(cfgMerge)
	if err != nil {
		return "", err
	}
	tw := newTextTable("db", "QMpH(hashjoin)", "QMpH(sortmerge)")
	for i := range repHash.Scales {
		tw.add(fmt.Sprintf("NPD%g", repHash.Scales[i].Scale),
			fmt.Sprintf("%.1f", repHash.Scales[i].QMPH),
			fmt.Sprintf("%.1f", repMerge.Scales[i].QMPH))
	}
	return "Figure 1: QMpH across scale factors for the two database profiles\n" + tw.String(), nil
}

// QueryBreakdown renders the per-query measures for one scale (the Table 1
// measures of the paper), with the total-latency distribution (stddev and
// p50/p95/p99 over the recorded per-run samples) next to the means.
func QueryBreakdown(sm ScaleMeasure) string {
	tw := newTextTable("query", "rewrite", "unfold", "exec", "translate", "total", "stddev", "p50", "p95", "p99", "rows", "tw", "#cq", "arms", "W(R+U)")
	for _, q := range sm.Queries {
		tw.add(q.QueryID,
			fmtDur(q.AvgRewrite), fmtDur(q.AvgUnfold), fmtDur(q.AvgExec),
			fmtDur(q.AvgTranslate), fmtDur(q.AvgTotal),
			fmtDur(q.StddevTotal), fmtDur(q.P50Total), fmtDur(q.P95Total), fmtDur(q.P99Total),
			fmt.Sprintf("%.0f", q.AvgRows),
			fmt.Sprint(q.TreeWitnesses), fmt.Sprint(q.CQs), fmt.Sprint(q.UnionArms),
			fmt.Sprintf("%.2f", q.WeightRU))
	}
	return fmt.Sprintf("NPD%g query breakdown (%d rows in DB)\n%s", sm.Scale, sm.DBRows, tw.String())
}

// StoreComparison runs the same workload on the triple-store baseline and
// reports load + per-query times (the paper's Ontop-vs-Stardog comparison).
func StoreComparison(cfg Config) (string, error) {
	queries := selectQueries(cfg)
	onto := npd.NewOntology()
	mapping := npd.NewMapping()
	tw := newTextTable("db", "mat_time", "#triples", "query", "obda_total", "store_total", "rows")
	for _, k := range cfg.Scales {
		db, _, err := BuildInstance(k, cfg.SeedScale, cfg.Seed)
		if err != nil {
			return "", err
		}
		db.Profile = cfg.Profile
		spec := core.Spec{Onto: onto, Mapping: mapping, DB: db, Prefixes: npd.Prefixes()}
		eng, err := core.NewEngine(spec, engineOptions(cfg, nil))
		if err != nil {
			return "", err
		}
		store, err := core.NewStoreEngine(spec, core.StoreOptions{Reasoning: true})
		if err != nil {
			return "", err
		}
		for _, q := range queries {
			a1, err := eng.Query(q.SPARQL)
			if err != nil {
				return "", fmt.Errorf("obda %s: %w", q.ID, err)
			}
			a2, err := store.Query(q.SPARQL)
			if err != nil {
				return "", fmt.Errorf("store %s: %w", q.ID, err)
			}
			tw.add(fmt.Sprintf("NPD%g", k),
				fmtDur(store.LoadStats().LoadTime),
				fmt.Sprint(store.LoadStats().Triples),
				q.ID, fmtDur(a1.Stats.TotalTime), fmtDur(a2.Stats.TotalTime),
				fmt.Sprint(a1.Len()))
		}
	}
	return "OBDA engine vs materialized triple store\n" + tw.String(), nil
}
