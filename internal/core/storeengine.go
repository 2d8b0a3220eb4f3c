package core

import (
	"fmt"
	"time"

	"npdbench/internal/obs"
	"npdbench/internal/rdf"
	"npdbench/internal/rewrite"
	"npdbench/internal/sparql"
	"npdbench/internal/triplestore"
)

// StoreEngine is the triple-store baseline of the benchmark (the role
// Stardog plays in the paper): the virtual RDF graph exposed by the OBDA
// specification is materialized into an indexed store, and SPARQL queries
// are answered over it with OWL 2 QL reasoning by query rewriting.
type StoreEngine struct {
	store    *triplestore.Store
	spec     Spec
	rewriter *rewrite.Rewriter
	load     StoreLoadStats
	freshSeq int
}

// StoreOptions configures the baseline.
type StoreOptions struct {
	// Reasoning enables OWL 2 QL query rewriting (hierarchy + existential).
	Reasoning bool
	// MaxCQs bounds the rewriting size (0 = default).
	MaxCQs int
}

// StoreLoadStats reports materialization cost — the triple store's
// "loading time" measure, which the paper contrasts with the OBDA starting
// phase.
type StoreLoadStats struct {
	LoadTime time.Duration
	Triples  int
}

// NewStoreEngine materializes the virtual graph and prepares the store.
func NewStoreEngine(spec Spec, opts StoreOptions) (*StoreEngine, error) {
	if spec.Onto == nil || spec.Mapping == nil || spec.DB == nil {
		return nil, fmt.Errorf("core: spec needs ontology, mapping, and database")
	}
	start := obs.Now()
	st := triplestore.New()
	if err := spec.Mapping.Materialize(spec.DB, func(t rdf.Triple) { st.Add(t) }); err != nil {
		return nil, err
	}
	se := &StoreEngine{store: st, spec: spec}
	if opts.Reasoning {
		// Hierarchy reasoning is applied per atom (each atom becomes a
		// union of its entailing atoms), so the rewriter itself only
		// handles the existential (tree-witness) part.
		se.rewriter = &rewrite.Rewriter{
			Onto:        spec.Onto,
			Existential: true,
			MaxCQs:      opts.MaxCQs,
		}
	}
	se.load = StoreLoadStats{LoadTime: obs.Since(start), Triples: st.Len()}
	return se, nil
}

// LoadStats returns materialization statistics.
func (se *StoreEngine) LoadStats() StoreLoadStats { return se.load }

// Store exposes the underlying triple store.
func (se *StoreEngine) Store() *triplestore.Store { return se.store }

// ParseQuery parses SPARQL with the spec's prefixes.
func (se *StoreEngine) ParseQuery(src string) (*sparql.Query, error) {
	return sparql.Parse(src, se.spec.Prefixes)
}

// Query parses and answers a SPARQL query over the materialized graph.
func (se *StoreEngine) Query(src string) (*Answer, error) {
	q, err := se.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return se.Answer(q)
}

// Answer evaluates the query; when reasoning is on, each BGP is first
// rewritten into a union of BGPs embedding the TBox inferences.
func (se *StoreEngine) Answer(q *sparql.Query) (*Answer, error) {
	start := obs.Now()
	st := PhaseStats{}
	pattern := q.Pattern
	if se.rewriter != nil {
		rwStart := obs.Now()
		var err error
		pattern, err = se.rewritePattern(pattern, &st)
		if err != nil {
			return nil, err
		}
		st.RewriteTime = obs.Since(rwStart)
	}
	exStart := obs.Now()
	ix := q.Index(pattern)
	rows, err := sparql.EvalPattern(pattern, ix, se.store)
	if err != nil {
		return nil, err
	}
	if se.rewriter != nil {
		// Reasoning rewrites BGPs into unions whose arms can derive the
		// same certain answer repeatedly; certain-answer semantics is a
		// set, so deduplicate over the original pattern's variables.
		rows = sparql.Dedupe(rows, ix.Slots(sparql.PatternVars(q.Pattern)))
	}
	rs := sparql.Finalize(q, ix, rows)
	st.ExecTime = obs.Since(exStart)
	st.TotalTime = obs.Since(start)
	return &Answer{ResultSet: rs, Stats: st}, nil
}

// rewritePattern expands every BGP leaf into the union of its UCQ
// rewriting.
func (se *StoreEngine) rewritePattern(p sparql.GraphPattern, st *PhaseStats) (sparql.GraphPattern, error) {
	switch x := p.(type) {
	case *sparql.BGP:
		if len(x.Triples) == 0 {
			return x, nil
		}
		cq, err := rewrite.FromBGP(x, se.spec.Onto, sparql.PatternVars(x))
		if err != nil {
			// Variable predicates etc.: evaluate unrewritten.
			return x, nil
		}
		res, err := rewriteComplete(se.rewriter, cq, sparql.PatternVars(x))
		if err != nil {
			return nil, err
		}
		st.TreeWitnesses += res.TreeWitnesses
		// Per-atom hierarchy expansion: each CQ becomes a join of unions.
		var out sparql.GraphPattern
		for _, dis := range res.UCQ {
			g := &sparql.Group{}
			for _, atom := range dis.Atoms {
				alts := se.rewriter.AtomAlternatives(atom, &se.freshSeq)
				st.CQCount += len(alts)
				var armPat sparql.GraphPattern
				for _, alt := range alts {
					bgp := cqToBGP(&rewrite.CQ{Atoms: []rewrite.Atom{alt}})
					if armPat == nil {
						armPat = bgp
					} else {
						armPat = &sparql.Union{Left: armPat, Right: bgp}
					}
				}
				g.Parts = append(g.Parts, armPat)
			}
			if out == nil {
				out = g
			} else {
				out = &sparql.Union{Left: out, Right: g}
			}
		}
		if out == nil {
			out = &sparql.BGP{}
		}
		return out, nil
	case *sparql.Group:
		out := &sparql.Group{}
		for _, part := range x.Parts {
			np, err := se.rewritePattern(part, st)
			if err != nil {
				return nil, err
			}
			out.Parts = append(out.Parts, np)
		}
		return out, nil
	case *sparql.Filter:
		inner, err := se.rewritePattern(x.Inner, st)
		if err != nil {
			return nil, err
		}
		return &sparql.Filter{Inner: inner, Cond: x.Cond}, nil
	case *sparql.Optional:
		l, err := se.rewritePattern(x.Left, st)
		if err != nil {
			return nil, err
		}
		r, err := se.rewritePattern(x.Right, st)
		if err != nil {
			return nil, err
		}
		return &sparql.Optional{Left: l, Right: r, Cond: x.Cond}, nil
	case *sparql.Union:
		l, err := se.rewritePattern(x.Left, st)
		if err != nil {
			return nil, err
		}
		r, err := se.rewritePattern(x.Right, st)
		if err != nil {
			return nil, err
		}
		return &sparql.Union{Left: l, Right: r}, nil
	}
	return p, nil
}

func cqToBGP(cq *rewrite.CQ) *sparql.BGP {
	bgp := &sparql.BGP{}
	toTV := func(t rewrite.Term) sparql.TermOrVar {
		if t.IsVar() {
			return sparql.V(t.Var)
		}
		return sparql.T(t.Const)
	}
	for _, a := range cq.Atoms {
		switch a.Kind {
		case rewrite.ClassAtom:
			bgp.Triples = append(bgp.Triples, sparql.TriplePattern{
				S: toTV(a.S),
				P: sparql.T(rdf.NewIRI(rdf.RDFType)),
				O: sparql.T(rdf.NewIRI(a.Pred)),
			})
		default:
			bgp.Triples = append(bgp.Triples, sparql.TriplePattern{
				S: toTV(a.S),
				P: sparql.T(rdf.NewIRI(a.Pred)),
				O: toTV(a.O),
			})
		}
	}
	return bgp
}
