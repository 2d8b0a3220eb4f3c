// Command obdaqd is the long-running SPARQL endpoint over an NPD
// benchmark instance: the serving-mode counterpart of obdaq. It speaks
// the SPARQL 1.1 protocol (GET ?query= and POST form or
// application/sparql-query, JSON and TSV results), bounds concurrency
// with admission control, enforces a per-query deadline through the
// engine's cooperative cancellation, and exposes /metrics, /healthz and
// (optionally) /debug/slowlog.
//
//	obdaqd -http :8585                     # serve NPD1 on port 8585
//	obdaqd -http :8585 -scale 5 -parallel 4
//	obdaqd -http :8585 -timeout 5s -maxinflight 8
//	kill -HUP <pid>                        # quiesced mapping reload
//	kill -TERM <pid>                       # graceful drain and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/mixer"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/server"
	"npdbench/internal/sqldb"
)

func main() {
	var (
		httpAddr    = flag.String("http", ":8585", "listen address for the SPARQL endpoint")
		scale       = flag.Float64("scale", 1, "NPDk scale factor")
		seedScale   = flag.Float64("seedscale", 1, "seed instance size multiplier")
		seed        = flag.Int64("seed", 42, "random seed")
		profile     = flag.String("profile", "hashjoin", "database profile: hashjoin | sortmerge")
		existential = flag.Bool("existential", true, "enable tree-witness reasoning")
		parallel    = flag.Int("parallel", 0, "intra-query parallel workers (0 = NumCPU, 1 = sequential)")
		budgetRows  = flag.Int64("budgetrows", 0, "per-query soft limit on rows scanned (0 = unlimited)")
		budgetBytes = flag.Int64("budgetbytes", 0, "per-query soft limit on bytes materialized (0 = unlimited)")
		slowlogCap  = flag.Int("slowlog", 0, "capture the N slowest executions and serve them on /debug/slowlog")
		slowThresh  = flag.Duration("slowthreshold", 0, "always retain traces of queries at least this slow (e.g. 50ms)")
		sampleRate  = flag.Float64("sample", 0, "probabilistic trace retention rate in [0,1]")
		maxInflight = flag.Int("maxinflight", server.DefaultMaxInflight, "concurrently executing queries before arrivals get 429")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-query deadline (0 = none)")
		retryAfter  = flag.Duration("retryafter", time.Second, "advisory Retry-After stamped on 429 responses")
		drainWait   = flag.Duration("draintimeout", 15*time.Second, "in-flight request drain budget on shutdown")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: obdaqd [flags] (obdaqd takes no positional arguments)")
		os.Exit(2)
	}

	db, genTime, err := mixer.BuildInstance(*scale, *seedScale, *seed)
	if err != nil {
		fatal(err)
	}
	switch *profile {
	case "hashjoin":
		db.Profile = sqldb.ProfileHashJoin
	case "sortmerge":
		db.Profile = sqldb.ProfileSortMerge
	default:
		fatal(fmt.Errorf("unknown profile %q", *profile))
	}
	fmt.Printf("obdaqd: instance NPD%g: %d rows (built in %v)\n", *scale, db.TotalRows(), genTime.Round(1e6))

	// The daemon always carries a metrics registry (it serves /metrics);
	// the slow log and sampler remain opt-in like obdaq's.
	observer := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Budget:  obs.QueryBudget{MaxRowsScanned: *budgetRows, MaxBytesMaterialized: *budgetBytes},
	}
	if *sampleRate > 0 || *slowThresh > 0 {
		observer.Sampler = &obs.Sampler{Rate: *sampleRate, SlowThreshold: *slowThresh, Seed: uint64(*seed)}
	}
	if *slowlogCap > 0 {
		observer.SlowLog = obs.NewSlowLog(*slowlogCap)
	}

	spec := core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()}
	opts := core.DefaultOptions()
	opts.Existential = *existential
	opts.Parallelism = *parallel
	opts.Obs = observer
	eng, err := core.NewEngine(spec, opts)
	if err != nil {
		fatal(err)
	}
	ls := eng.LoadStats()
	fmt.Printf("obdaqd: starting phase %v (%d mapping assertions, %d after T-mapping saturation)\n",
		ls.LoadTime.Round(1e6), ls.MappingAssertions, ls.SaturatedAssertions)

	srv := server.New(eng, server.Config{
		MaxInflight:  *maxInflight,
		QueryTimeout: *timeout,
		RetryAfter:   *retryAfter,
		Obs:          observer,
	})
	hs := &http.Server{
		Addr:              *httpAddr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	addr, stop, err := server.StartHTTP(hs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("obdaqd: serving SPARQL on %s (maxinflight=%d timeout=%v)\n", addr, *maxInflight, *timeout)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for sig := range sigc {
		if sig == syscall.SIGHUP {
			// Quiesced reconfiguration: the server's write lock drains
			// in-flight queries, then the engine re-reads its mapping,
			// re-derives constraints, and drops cached plans.
			srv.ReloadMapping(npd.NewMapping())
			fmt.Println("obdaqd: reload complete")
			continue
		}
		fmt.Printf("obdaqd: %v: draining (budget %v)\n", sig, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		err := stop(ctx)
		cancel()
		if err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		fmt.Println("obdaqd: shutdown complete")
		return
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obdaqd:", err)
	os.Exit(1)
}
