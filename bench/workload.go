package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/server"
	"npdbench/internal/sqldb"
	"npdbench/internal/vig"
)

// dataSeed fixes the instance data: the expected answers under expected/
// are pinned to it. The -seed flag is the workload seed and drives only the
// per-mix query order and the arrival schedule.
const dataSeed = 42

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the one-line reason the workload exists (mirrored in
	// BENCHMARK.json and README.md).
	why string
	// queryIDs is the query list of one mix; nil means all 21 NPD queries.
	queryIDs  []string
	seedScale float64
	// growth is the VIG growth factor; 1 leaves the seed instance as is.
	growth float64
	// cold invalidates the plan cache before every query, so each one pays
	// parse → rewrite → static-prune → unfold → plan.
	cold bool
	// warmup is the number of mixes run through the handler during set-up.
	warmup int
	// rate > 0 serves the workload over loopback HTTP: the closed loop's one
	// client uses one keep-alive connection, and the traced pass adds an
	// open loop at that many queries per second. 0 is a closed loop with
	// one client calling the handler in process.
	rate float64
}

// hashQueries are the NPD queries whose join variables all meet identical
// IRI templates, so every join unfolds to a hash join.
var hashQueries = []string{"q3", "q4", "q7", "q8", "q10", "q11", "q15", "q19", "q20"}

// openConnections is the number of keep-alive connections the open loop
// dispatches over; it matches the two CPUs the benchmark is sized for.
const openConnections = 2

var workloads = []workload{
	{
		name:      "mix_warm",
		why:       "the paper's 21-query mix, plan cache warm: time is sqldb execute over ~200-arm unions with zero-key nested loops",
		seedScale: 0.15, growth: 1, warmup: 2,
	},
	{
		name:      "mix_cold",
		why:       "same mix on a 371-row instance with plans invalidated before every query: parse/rewrite/prune/unfold/plan dominate",
		seedScale: 0.02, growth: 1, cold: true, warmup: 5,
	},
	{
		name:      "hash_scaled",
		why:       "the 9 all-hash-join queries on a VIG-grown ~100k-row instance: scans, vector filters, hash joins, batches, morsels",
		queryIDs:  hashQueries,
		seedScale: 1, growth: 6, warmup: 3,
	},
	{
		name:      "serve_open",
		why:       "the mix warm on the 371-row instance over loopback HTTP, closed loop plus an open loop at 100 q/s in the traced pass: serving overhead, queueing",
		seedScale: 0.02, growth: 1, warmup: 5, rate: 100,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// queries resolves the workload's query list.
func (w *workload) queries() ([]npd.BenchQuery, error) {
	if w.queryIDs == nil {
		return npd.Queries(), nil
	}
	out := make([]npd.BenchQuery, 0, len(w.queryIDs))
	for _, id := range w.queryIDs {
		q := npd.QueryByID(id)
		if q == nil {
			return nil, fmt.Errorf("workload %s: unknown query %s", w.name, id)
		}
		out = append(out, *q)
	}
	return out, nil
}

// mixOrder yields the query order of successive mixes: every mix is a
// seeded permutation of the query list, so each query runs once per mix.
type mixOrder struct {
	rng *rand.Rand
	nq  int
}

func newMixOrder(seed int64, nq int) *mixOrder {
	return &mixOrder{rng: rand.New(rand.NewSource(seed)), nq: nq}
}

func (m *mixOrder) next() []int { return m.rng.Perm(m.nq) }

// arrival is one scheduled open-loop request.
type arrival struct {
	due   time.Duration // offset from the start of the window
	query int           // index into the workload's query list
}

// arrivalSchedule draws the arrivals of a Poisson process at rate per second
// over the window, conditioned on their number: round(rate × window) due
// times, independent and uniform over the window, in order. Fixing the count
// keeps the offered load identical from seed to seed while the gaps stay
// exponential-like and bursty. The query sequence is a concatenation of
// seeded permutations, so every block of nq consecutive arrivals is one mix.
func arrivalSchedule(seed int64, rate float64, window time.Duration, nq int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i].due = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].due < out[b].due })
	var perm []int
	for i := range out {
		if i%nq == 0 {
			perm = rng.Perm(nq)
		}
		out[i].query = perm[i%nq]
	}
	return out
}

// setupStats are the set-up counters and timings of one instance build.
type setupStats struct {
	seedS, analyzeS, generateS, loadS, segmentS float64
	rows, rowsInserted, saturated               int
}

// buildDB seeds the workload's database and grows it with VIG.
func buildDB(w *workload, st *setupStats) (*sqldb.Database, error) {
	start := obs.Now()
	db, err := npd.NewSeededDatabase(npd.SeedConfig{Scale: w.seedScale, Seed: dataSeed})
	if err != nil {
		return nil, fmt.Errorf("seeding %s: %w", w.name, err)
	}
	st.seedS = obs.Since(start).Seconds()
	if w.growth > 1 {
		start = obs.Now()
		analysis, err := vig.Analyze(db)
		if err != nil {
			return nil, fmt.Errorf("vig analysis for %s: %w", w.name, err)
		}
		st.analyzeS = obs.Since(start).Seconds()
		start = obs.Now()
		rep, err := vig.New(analysis, dataSeed).Generate(db, w.growth-1)
		if err != nil {
			return nil, fmt.Errorf("vig growth for %s: %w", w.name, err)
		}
		st.generateS = obs.Since(start).Seconds()
		st.rowsInserted = rep.TotalInserted()
	}
	st.rows = db.TotalRows()
	return db, nil
}

func specFor(db *sqldb.Database) core.Spec {
	return core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
}

// instance is one ready system under test: data, engine and endpoint.
type instance struct {
	w       *workload
	queries []npd.BenchQuery
	db      *sqldb.Database
	eng     *core.Engine
	handler http.Handler
	// url, client and stop belong to the loopback endpoint (workloads with
	// a rate only).
	url    string
	client *http.Client
	stop   func(ctx context.Context) error
	stats  setupStats
	// setupS is the wall time of the whole set-up including warm-up.
	setupS float64
}

// queryTimeout is the per-query deadline of the served endpoint.
const queryTimeout = 5 * time.Second

// newInstance performs the workload's set-up: seed, VIG growth, engine load,
// columnar segments for every table, endpoint start, warm-up mixes. wrap,
// when set, is the traced pass's span middleware, put between the listener
// and the server's handler.
func newInstance(ctx context.Context, w *workload, observer *obs.Observer, wrap func(http.Handler) http.Handler) (*instance, error) {
	start := obs.Now()
	inst := &instance{w: w}
	var err error
	if inst.queries, err = w.queries(); err != nil {
		return nil, err
	}
	if inst.db, err = buildDB(w, &inst.stats); err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Obs = observer
	if inst.eng, err = core.NewEngine(specFor(inst.db), opts); err != nil {
		return nil, fmt.Errorf("loading engine for %s: %w", w.name, err)
	}
	load := inst.eng.LoadStats()
	inst.stats.loadS = load.LoadTime.Seconds()
	inst.stats.saturated = load.SaturatedAssertions
	segStart := obs.Now()
	for _, t := range inst.db.Tables() {
		t.Segment()
	}
	inst.stats.segmentS = obs.Since(segStart).Seconds()

	srv := server.New(inst.eng, server.Config{QueryTimeout: queryTimeout})
	inst.handler = srv.Handler()
	if wrap != nil {
		inst.handler = wrap(inst.handler)
	}
	if w.rate > 0 {
		addr, stop, err := server.StartHTTP(&http.Server{
			Addr:              "127.0.0.1:0",
			Handler:           inst.handler,
			ReadHeaderTimeout: 10 * time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("starting endpoint for %s: %w", w.name, err)
		}
		inst.url, inst.client, inst.stop = "http://"+addr+"/sparql", newClient(), stop
	}
	for i := 0; i < w.warmup; i++ {
		for qi := range inst.queries {
			if resp := inst.serve(ctx, qi); resp.err != nil || resp.status != http.StatusOK {
				inst.close()
				return nil, fmt.Errorf("warm-up of %s on %s: status %d: %v", inst.queries[qi].ID, w.name, resp.status, resp.err)
			}
		}
	}
	inst.setupS = obs.Since(start).Seconds()
	return inst, nil
}

// close stops the endpoint, waiting for its serve goroutine to exit.
func (inst *instance) close() {
	if inst.stop == nil {
		return
	}
	inst.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inst.stop(ctx); err != nil {
		fmt.Printf("# warning: stopping endpoint of %s: %v\n", inst.w.name, err)
	}
	inst.stop = nil
}
