package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"npdbench/internal/npd"
	"npdbench/internal/obs"
)

// openRecord is one open-loop request with the instants the harness saw,
// as offsets from the start of the arrival window.
type openRecord struct {
	arrival
	// released is when the generator actually put the request on the
	// queue; released − due is the generator's own lateness.
	released time.Duration
	// sent is when a connection picked the request up; sent − due is the
	// wait a stall ahead of it imposed.
	sent time.Duration
	done time.Duration
	resp response
}

// openResult adds the open loop's own layer numbers to a loopResult.
type openResult struct {
	loopResult
	records []openRecord
	// backlog counts requests that were due inside the window and not
	// complete when it closed.
	backlog int
}

// sender performs one request on connection conn; the loopback client in
// production, a stub in tests.
type sender func(ctx context.Context, conn int, a arrival, reqID, parent int64) response

// runOpen is the open loop: requests are released on the seeded schedule
// whatever the system's state, dispatched over a fixed number of
// connections, and timed from the moment each was due.
func runOpen(ctx context.Context, schedule []arrival, window time.Duration, conns int, send sender, rec *recorder, queryIDs []string) openResult {
	records := make([]openRecord, len(schedule))
	// The queue holds every scheduled request, so the generator never blocks
	// on a slow system: that is what makes the loop open.
	queue := make(chan int, len(schedule))
	began := obs.Now()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i, a := range schedule {
			if wait := a.due - obs.Since(began); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					timer.Stop()
					return
				case <-timer.C:
				}
			}
			records[i].arrival = a
			records[i].released = obs.Since(began)
			queue <- i
		}
	}()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range queue {
				r := &records[i]
				reqID := int64(i + 1)
				var netID int64
				if rec != nil {
					netID = rec.reserve()
				}
				r.sent = obs.Since(began)
				r.resp = send(ctx, conn, r.arrival, reqID, netID)
				r.done = obs.Since(began)
				if rec != nil {
					q := queryIDs[r.query]
					root := rec.add(0, reqID, "request", q, began.Add(r.due), began.Add(r.done))
					rec.add(root, reqID, "queue", q, began.Add(r.due), began.Add(r.sent))
					rec.put(netID, root, reqID, "net", q, began.Add(r.sent), began.Add(r.done))
				}
			}
		}(c)
	}
	wg.Wait()

	res := openResult{records: records}
	// Throughput is counted over the time the system took to finish the
	// offered work: the window, or longer when a backlog was left.
	res.window = window
	for i, r := range records {
		if r.done == 0 {
			continue // never released: the run was cancelled
		}
		res.window = max(res.window, r.done)
		res.attempted++
		res.samples = append(res.samples, sample{query: r.query, mix: i / len(queryIDs), latency: r.done - r.due})
		if r.done > window {
			res.backlog++
		}
	}
	res.mixes = len(res.samples) / len(queryIDs)
	return res
}

// sendHTTP sends one query over loopback HTTP and reads the whole response.
// A non-zero parent puts the span context into the request headers for the
// traced pass's server-side middleware.
func sendHTTP(ctx context.Context, client *http.Client, url string, q npd.BenchQuery, reqID, parent int64) response {
	req, err := newRequest(ctx, url, q.SPARQL)
	if err != nil {
		return response{err: err}
	}
	if parent != 0 {
		req.Header.Set(headerReq, strconv.FormatInt(reqID, 10))
		req.Header.Set(headerParent, strconv.FormatInt(parent, 10))
		req.Header.Set(headerQuery, q.ID)
	}
	start := obs.Now()
	httpResp, err := client.Do(req)
	if err != nil {
		return response{err: err, start: start, latency: obs.Since(start)}
	}
	body, err := io.ReadAll(httpResp.Body)
	if cerr := httpResp.Body.Close(); err == nil {
		err = cerr
	}
	return response{status: httpResp.StatusCode, body: body, err: err, start: start, latency: obs.Since(start)}
}

// newClient builds an HTTP client that keeps one connection alive.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// runServeOpen runs the open loop against the instance's loopback endpoint
// and checks every response once the window has drained.
func runServeOpen(ctx context.Context, inst *instance, check *checker, seed int64, window time.Duration, rec *recorder) openResult {
	schedule := arrivalSchedule(seed, inst.w.rate, window, len(inst.queries))
	clients := make([]*http.Client, openConnections)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	send := func(ctx context.Context, conn int, a arrival, reqID, parent int64) response {
		return sendHTTP(ctx, clients[conn], inst.url, inst.queries[a.query], reqID, parent)
	}
	res := runOpen(ctx, schedule, window, openConnections, send, rec, check.queryIDs)
	for _, r := range res.records {
		if r.done != 0 && !check.ok(r.query, r.resp) {
			res.failed++
		}
	}
	return res
}

// openStats are the serving-layer numbers of an open-loop run.
type openStats struct {
	queueWaitP95MS, genLatenessP95MS float64
	status429, status503             int
}

func (res openResult) stats() openStats {
	var waits, lates []float64
	var st openStats
	for _, r := range res.records {
		if r.done == 0 {
			continue
		}
		waits = append(waits, ms(r.sent-r.due))
		lates = append(lates, ms(r.released-r.due))
		switch r.resp.status {
		case http.StatusTooManyRequests:
			st.status429++
		case http.StatusServiceUnavailable:
			st.status503++
		}
	}
	st.queueWaitP95MS = obs.Percentile(waits, 95)
	st.genLatenessP95MS = obs.Percentile(lates, 95)
	return st
}

// maxGenLatenessMS voids an open-loop run whose generator itself ran late.
// The generator shares the process, and so the two CPUs, with the engine:
// when a query's workers hold both, the Go scheduler hands the generator a
// CPU only at the next preemption point, up to 10 ms away. Two such quanta
// are tolerated; latency is counted from the due time either way.
const maxGenLatenessMS = 20

// errGeneratorLate marks a void open-loop run: the machine, not the system
// under test, was too busy for the schedule to be kept.
var errGeneratorLate = errors.New("load generator ran late, the run is void")

func (st openStats) check() error {
	if st.genLatenessP95MS > maxGenLatenessMS {
		return fmt.Errorf("%w: p95 %.2f ms > %d ms", errGeneratorLate, st.genLatenessP95MS, maxGenLatenessMS)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
