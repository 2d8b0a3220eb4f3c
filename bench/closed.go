package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"npdbench/internal/obs"
)

// response is the outcome of one request, in process or over loopback.
type response struct {
	status  int
	body    []byte
	err     error
	start   time.Time
	latency time.Duration
}

// newRequest builds the SPARQL-protocol request for one query: the program
// under test only ever sees the query text.
func newRequest(ctx context.Context, url, sparqlText string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(sparqlText))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	req.Header.Set("Accept", "application/sparql-results+json")
	return req, nil
}

// serveInProcess sends query qi through the handler in process: SPARQL text
// in, SPARQL-JSON bytes out, no socket. A cold workload drops the compiled
// plans first, outside the timed section.
func (inst *instance) serveInProcess(ctx context.Context, qi int) response {
	if inst.w.cold {
		inst.eng.InvalidatePlans()
	}
	req, err := newRequest(ctx, "/sparql", inst.queries[qi].SPARQL)
	if err != nil {
		return response{err: err}
	}
	rec := httptest.NewRecorder()
	start := obs.Now()
	inst.handler.ServeHTTP(rec, req)
	return response{status: rec.Code, body: rec.Body.Bytes(), start: start, latency: obs.Since(start)}
}

// serve is the closed loop's one client: in process, or over the one
// keep-alive loopback connection when the workload has an endpoint.
func (inst *instance) serve(ctx context.Context, qi int) response {
	if inst.client == nil {
		return inst.serveInProcess(ctx, qi)
	}
	return sendHTTP(ctx, inst.client, inst.url, inst.queries[qi], 0, 0)
}

// sample is one measured request.
type sample struct {
	query   int
	mix     int
	latency time.Duration
}

// loopResult is what a measured section, closed or open, hands to the
// metric computation.
type loopResult struct {
	samples []sample
	// mixes counts the complete mixes among the samples.
	mixes int
	// window is the time throughput is counted over: the summed response
	// time of a closed loop; for an open loop the arrival window, or longer
	// when a backlog was left.
	window    time.Duration
	attempted int
	failed    int
}

// runClosed is the closed loop: one client sends the next query only after
// the previous response is complete, mix after mix, until the budget is
// spent (at least one mix). Every response is checked against the oracle
// outside the timed section.
func runClosed(ctx context.Context, inst *instance, check *checker, seed int64, budget time.Duration) loopResult {
	var res loopResult
	order := newMixOrder(seed, len(inst.queries))
	began := obs.Now()
	for mix := 0; mix == 0 || obs.Since(began) < budget; mix++ {
		if ctx.Err() != nil {
			break
		}
		for _, qi := range order.next() {
			resp := inst.serve(ctx, qi)
			res.attempted++
			if !check.ok(qi, resp) {
				res.failed++
			}
			res.samples = append(res.samples, sample{query: qi, mix: mix, latency: resp.latency})
			res.window += resp.latency
		}
		res.mixes++
	}
	return res
}
