package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"npdbench/internal/npd"
	"npdbench/internal/obs"
)

// setupRepeats is how many times an untraced run performs the whole set-up;
// setup_s is the median, and the last instance is the one measured.
const setupRepeats = 3

// runConfig is one benchmark run: one workload, one seed, one pass.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// setups is the number of set-ups an untraced run performs
	// (setupRepeats outside tests).
	setups int
	// dir is the benchmark's directory: expected answers are read from
	// dir/expected.
	dir string
}

// runOutput is what one run reports.
type runOutput struct {
	attempted, failed int
	// firstBad describes the first failed check, if any.
	firstBad string
	metrics  *metricSet
	// spans is the traced pass's span list (nil for an untraced run).
	spans []span
}

func (o runOutput) correct() bool { return o.failed == 0 && o.attempted > 0 }

func budget(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(ctx context.Context, cfg runConfig) (runOutput, error) {
	var setups []float64
	var inst *instance
	for i := 0; i < max(cfg.setups, 1); i++ {
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = newInstance(ctx, cfg.w, nil, nil); err != nil {
			return runOutput{}, err
		}
		setups = append(setups, inst.setupS)
	}
	defer inst.close()
	check, err := newChecker(cfg.dir, inst)
	if err != nil {
		return runOutput{}, err
	}
	res := runClosed(ctx, inst, check, cfg.seed, budget(cfg.seconds))
	// Live heap with the instance, its segments and the engine's caches
	// still reachable: work moved into set-up or caches shows here. A cold
	// workload's plan cache holds whatever query happened to run last (up
	// to 0.5 MB for q6), so it is emptied first. The second collection
	// empties what sync.Pool kept through the first.
	if cfg.w.cold {
		inst.eng.InvalidatePlans()
	}
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(inst)
	return runOutput{
		attempted: res.attempted,
		failed:    res.failed,
		firstBad:  check.firstBad,
		metrics:   endToEnd(res, len(inst.queries), setups, float64(mem.HeapAlloc)/1e6),
	}, nil
}

// Shares of a traced run's time budget. An in-process workload spends the
// first share in its untraced closed loop (per-query medians, the overhead
// baseline) and the rest in traced mixes. A served workload runs the open
// loop untraced, then traced, then a few traced mixes in process for the
// compile and execute layers.
const (
	closedUntracedShare = 0.4
	openLoopShare       = 0.35
)

// runTraced measures the per-layer metrics: a short untraced section for the
// baseline, then the same workload with the engine's tracing and operator
// profiles on and the harness's spans around every public entry point.
func runTraced(ctx context.Context, cfg runConfig) (runOutput, error) {
	w := cfg.w
	values := map[string]float64{}
	out := runOutput{}
	began := obs.Now()

	// Untraced baseline.
	base, err := newInstance(ctx, w, nil, nil)
	if err != nil {
		return out, err
	}
	baseCheck, err := newChecker(cfg.dir, base)
	if err != nil {
		base.close()
		return out, err
	}
	var baseRes loopResult
	if w.rate == 0 {
		baseRes = runClosed(ctx, base, baseCheck, cfg.seed, budget(cfg.seconds*closedUntracedShare))
	} else {
		open := runServeOpen(ctx, base, baseCheck, cfg.seed, budget(cfg.seconds*openLoopShare), nil)
		if err := open.stats().check(); err != nil {
			base.close()
			return out, err
		}
		baseRes = open.loopResult
		lat := latenciesMS(baseRes)
		values["server.open_ms_p50"], values["server.open_ms_p95"] = obs.Percentile(lat, 50), obs.Percentile(lat, 95)
	}
	base.close()
	out.attempted, out.failed, out.firstBad = baseRes.attempted, baseRes.failed, baseCheck.firstBad
	for qi, v := range queryP50(baseRes, len(base.queries)) {
		values["core.query_ms_p50."+base.queries[qi].ID] = v
	}
	untracedMixP50 := median(mixSeconds(baseRes))

	// Traced instance.
	rec := newRecorder()
	observer := &obs.Observer{Tracing: true, ExecProfile: true}
	inst, err := newInstance(ctx, w, observer, rec.serverSpans)
	if err != nil {
		return out, err
	}
	defer inst.close()
	check, err := newChecker(cfg.dir, inst)
	if err != nil {
		return out, err
	}
	st := inst.stats
	values["npd.seed_s"], values["npd.rows"] = st.seedS, float64(st.rows)
	values["vig.analyze_s"], values["vig.generate_s"] = st.analyzeS, st.generateS
	values["vig.rows_inserted"] = float64(st.rowsInserted)
	values["core.load_s"], values["core.saturated_assertions"] = st.loadS, float64(st.saturated)
	values["sqldb.segment_build_s"] = st.segmentS

	tracedMixP50 := 0.0
	// firstReq keeps the replayed mixes' request ids clear of the open
	// loop's, which number its schedule from 1.
	firstReq := int64(0)
	if w.rate > 0 {
		open := runServeOpen(ctx, inst, check, cfg.seed, budget(cfg.seconds*openLoopShare), rec)
		out.attempted += open.attempted
		out.failed += open.failed
		firstReq = int64(len(open.records))
		if err := openLayerValues(open, rec.snapshot(), values); err != nil {
			return out, err
		}
		tracedMixP50 = median(mixSeconds(open.loopResult))
	}

	// Traced mixes through every layer's entry point.
	tr := &tracer{inst: inst, check: check, rec: rec, prefixes: npd.Prefixes(), reqMix: map[int64]int{}, nextReq: firstReq}
	order := newMixOrder(cfg.seed, len(inst.queries))
	var mixes []mixAcc
	for mix := 0; mix == 0 || obs.Since(began) < budget(cfg.seconds); mix++ {
		acc, err := tr.traceMix(ctx, mix, order.next())
		if err != nil {
			return out, err
		}
		mixes = append(mixes, acc)
	}
	out.attempted += tr.attempted
	out.failed += tr.failed
	if out.firstBad == "" {
		out.firstBad = check.firstBad
	}
	if w.rate == 0 {
		tracedMixP50 = perMixMedian(mixes, "server_ms") / 1000
	}
	values["obs.trace_overhead_ratio"] = ratio(tracedMixP50, untracedMixP50)

	// Self time of the engine span: its duration minus its stage spans.
	out.spans = rec.snapshot()
	self := selfTimes(out.spans)
	for _, s := range out.spans {
		if s.Name == "core" {
			mixes[tr.reqMix[s.Req]]["core.self_ms_per_mix"] += ms(self[s.ID])
		}
	}

	out.metrics = newMetricSet()
	for _, def := range layerCatalog() {
		v := values[def.name]
		if def.perMix {
			v = perMixMedian(mixes, def.name)
		}
		out.metrics.add(def.name, def.unit, v)
	}
	return out, nil
}

// openLayerValues fills in the serving layer's metrics from a traced open
// loop and its spans; it fails when the run is void.
func openLayerValues(open openResult, spans []span, values map[string]float64) error {
	serving := open.stats()
	if err := serving.check(); err != nil {
		return err
	}
	values["server.queue_wait_ms_p95"] = serving.queueWaitP95MS
	values["server.gen_lateness_ms_p95"] = serving.genLatenessP95MS
	values["server.backlog_at_end"] = float64(open.backlog)
	values["server.status_429"], values["server.status_503"] = float64(serving.status429), float64(serving.status503)
	// Client round trip minus the endpoint's own time, per request.
	self := selfTimes(spans)
	var netSelf []float64
	for _, s := range spans {
		if s.Name == "net" {
			netSelf = append(netSelf, ms(self[s.ID]))
		}
	}
	values["server.net_self_ms_p50"] = median(netSelf)
	return nil
}

// runWorkload performs one run and refuses to report from a process that
// has more scheduler threads than the machine has CPUs.
func runWorkload(ctx context.Context, cfg runConfig) (runOutput, error) {
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		return runOutput{}, fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs of this machine: refusing to report", procs, cpus)
	}
	if cfg.trace {
		return runTraced(ctx, cfg)
	}
	return runUntraced(ctx, cfg)
}
