package main

import (
	"fmt"

	"npdbench/internal/obs"
)

// metric is one named measurement with its unit. N is the sample count
// behind a percentile (0 where it does not apply).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// metricSet keeps metrics in the order they were added and refuses
// duplicates, so every name is printed exactly once.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func newMetricSet() *metricSet { return &metricSet{seen: map[string]bool{}} }

func (m *metricSet) add(name, unit string, value float64) {
	m.addN(name, unit, value, 0)
}

func (m *metricSet) addN(name, unit string, value float64, n int) {
	if m.seen[name] {
		panic("bench: metric added twice: " + name)
	}
	m.seen[name] = true
	m.list = append(m.list, metric{Name: name, Value: value, Unit: unit, N: n})
}

// print writes one line per metric: name, value, unit and, for percentiles,
// the sample count and whether ten samples lie beyond the percentile.
func (m *metricSet) print(prefix string) {
	for _, x := range m.list {
		line := fmt.Sprintf("%s%-44s %14.6g %s", prefix, x.Name, x.Value, x.Unit)
		if x.N > 0 {
			line += fmt.Sprintf("  (n=%d, highest supported p%g)", x.N, highestPercentile(x.N))
		}
		fmt.Println(line)
	}
}

// percentileLadder is the set of percentiles the benchmark reports from,
// each with the share of samples beyond it in parts per thousand.
var percentileLadder = []struct {
	p           float64
	beyondMille int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}, {50, 500}}

// highestPercentile picks the highest percentile of the ladder that still
// has at least ten of n samples beyond it; below twenty samples only the
// median is left.
func highestPercentile(n int) float64 {
	for _, step := range percentileLadder {
		if n*step.beyondMille >= 10*1000 {
			return step.p
		}
	}
	return 50
}

func median(v []float64) float64 { return obs.Percentile(v, 50) }

// mixSeconds sums each complete mix's response times.
func mixSeconds(res loopResult) []float64 {
	sums := make([]float64, res.mixes)
	for _, s := range res.samples {
		if s.mix < res.mixes {
			sums[s.mix] += s.latency.Seconds()
		}
	}
	return sums
}

// endToEnd computes the metrics a user of the system would see. Every
// workload reports every one of them: a mix's time is the summed response
// time of its queries, whether one client waited for each in turn (closed
// loop) or the requests arrived on a schedule (open loop, timed from due).
func endToEnd(res loopResult, nq int, setupS []float64, heapMB float64) *metricSet {
	m := newMetricSet()
	m.addN("setup_s", "s", median(setupS), len(setupS))
	mixes := mixSeconds(res)
	m.addN("mix_s_p50", "s", obs.Percentile(mixes, 50), len(mixes))
	m.addN("mix_s_p75", "s", obs.Percentile(mixes, 75), len(mixes))
	ok := float64(res.attempted - res.failed)
	m.add("qmph", "mixes/h", 3600*ok/float64(nq)/res.window.Seconds())
	lat := latenciesMS(res)
	m.addN("req_ms_p50", "ms", obs.Percentile(lat, 50), len(lat))
	// p97, not p95: the queries of a mix are equally frequent, so the
	// slowest of 21 is exactly the top 4.76 % of requests and p95 sits on the
	// boundary between the two slowest queries, flipping between them from
	// run to run. p97 lies inside the slowest query's share on the 21-query
	// and the 9-query mix alike.
	m.addN("req_ms_p97", "ms", obs.Percentile(lat, 97), len(lat))
	m.add("ok_ratio", "ratio", ratio(ok, float64(res.attempted)))
	m.add("heap_live_mb", "MB", heapMB)
	return m
}

func latenciesMS(res loopResult) []float64 {
	lat := make([]float64, len(res.samples))
	for i, s := range res.samples {
		lat[i] = ms(s.latency)
	}
	return lat
}

// queryP50 is the per-query median latency in milliseconds, by query index.
func queryP50(res loopResult, nq int) []float64 {
	by := make([][]float64, nq)
	for _, s := range res.samples {
		by[s.query] = append(by[s.query], ms(s.latency))
	}
	out := make([]float64, nq)
	for i, v := range by {
		out[i] = median(v)
	}
	return out
}

// mixAcc accumulates one traced mix's per-layer sums by metric name.
type mixAcc map[string]float64

// perMixMedian reduces the traced mixes to one value per name: the median
// over mixes of the per-mix sum.
func perMixMedian(mixes []mixAcc, name string) float64 {
	v := make([]float64, len(mixes))
	for i, m := range mixes {
		v[i] = m[name]
	}
	return median(v)
}
