package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
)

// contextWithTestTimeout bounds a test's drain/shutdown wait.
func contextWithTestTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// countdownCtx is a context whose Err() flips to context.Canceled after a
// fixed number of polls. It makes "cancel mid-execute" deterministic: the
// first N cooperative-cancellation checks pass (the query provably starts
// executing), the N+1th — wherever it lands inside the executor — stops
// the query. No sleeps, no timing races.
type countdownCtx struct {
	remaining atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{}
	c.remaining.Store(polls)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidExecuteReleasesResources is the serving-path leak audit: a
// query canceled in the middle of execution must return ctx's error, and
// neither the npdbench_queries_inflight gauge nor any worker-pool slot may
// leak. Runs across several NPD mix queries, both early and late
// cancellation points, and at four workers and one.
func TestCancelMidExecuteReleasesResources(t *testing.T) {
	for _, workers := range []int{4, 1} {
		reg := obs.NewRegistry()
		eng := testEngine(t, workers, reg)
		gauge := reg.Gauge("npdbench_queries_inflight")
		for _, id := range []string{"q2", "q6", "q9", "q12"} {
			bq := npd.QueryByID(id)
			if bq == nil {
				t.Fatalf("unknown query %s", id)
			}
			q, err := eng.ParseQuery(bq.SPARQL)
			if err != nil {
				t.Fatalf("%s: parse: %v", id, err)
			}
			for _, polls := range []int64{3, 25, 200} {
				_, err := eng.AnswerNamedCtx(newCountdownCtx(polls), q, id)
				if err == nil {
					// The query finished before poll N — it was cheaper
					// than the countdown. Only the late points may do that.
					if polls <= 25 {
						t.Errorf("workers=%d %s polls=%d: query completed, cancellation never observed", workers, id, polls)
					}
				} else if !errors.Is(err, context.Canceled) {
					t.Errorf("workers=%d %s polls=%d: err = %v, want context.Canceled", workers, id, polls, err)
				}
				if v := gauge.Value(); v != 0 {
					t.Fatalf("workers=%d %s polls=%d: inflight gauge = %d after cancel, want 0", workers, id, polls, v)
				}
				if !eng.Pool().Idle() {
					t.Fatalf("workers=%d %s polls=%d: worker pool not idle after cancel", workers, id, polls)
				}
			}
			// The engine must stay healthy for the next client.
			ans, err := eng.AnswerNamedCtx(context.Background(), q, id)
			if err != nil {
				t.Fatalf("workers=%d %s: query after cancellations failed: %v", workers, id, err)
			}
			if ans == nil {
				t.Fatalf("workers=%d %s: nil answer", workers, id)
			}
		}
	}
}

// TestDeadlineExceededMapsTo503 drives a per-query deadline through the
// HTTP path: an immediately-expiring deadline must produce 503, not a
// hung request or a 200.
func TestDeadlineExceededMapsTo503(t *testing.T) {
	reg := obs.NewRegistry()
	eng := testEngine(t, 2, reg)
	s := New(eng, Config{QueryTimeout: time.Nanosecond, Obs: &obs.Observer{Metrics: reg}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(npd.QueryByID("q6").SPARQL))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if v := reg.Gauge("npdbench_queries_inflight").Value(); v != 0 {
		t.Fatalf("inflight gauge = %d, want 0", v)
	}
}

// TestConcurrentDisconnectsAcrossMix is the -race serving suite: client
// goroutines fire the full 21-query NPD mix and abandon most requests
// mid-flight (canceled request contexts = dropped connections), while a
// reloader swaps the mapping and invalidates plans under live traffic.
// Afterwards the server must be healthy, the inflight gauge zero, and the
// worker pool idle.
func TestConcurrentDisconnectsAcrossMix(t *testing.T) {
	reg := obs.NewRegistry()
	eng := testEngine(t, 4, reg)
	s := New(eng, Config{MaxInflight: 8, QueryTimeout: 2 * time.Second, Obs: &obs.Observer{Metrics: reg}})
	ts := httptest.NewServer(s.Handler())

	queries := npd.Queries()
	const clients = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, bq := range queries {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if (i+c)%3 != 0 {
					// Two thirds of requests disconnect almost immediately.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+(i+c)%5)*time.Millisecond)
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodGet,
					ts.URL+"/sparql?query="+url.QueryEscape(bq.SPARQL)+"&label="+bq.ID, nil)
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					switch resp.StatusCode {
					case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
					default:
						t.Errorf("%s: unexpected status %d", bq.ID, resp.StatusCode)
					}
					resp.Body.Close()
				}
				cancel()
			}
		}(c)
	}
	// Reloader: SetMapping and InvalidatePlans racing the live Answer
	// calls through the server's quiescing lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if i%2 == 0 {
				s.ReloadMapping(npd.NewMapping())
			} else {
				s.Reload(func(e *core.Engine) { e.InvalidatePlans() })
			}
		}
	}()
	wg.Wait()
	ts.Close() // waits for outstanding handlers

	if v := reg.Gauge("npdbench_queries_inflight").Value(); v != 0 {
		t.Fatalf("inflight gauge = %d after drain, want 0", v)
	}
	if !eng.Pool().Idle() {
		t.Fatal("worker pool not idle after drain")
	}
	if got := reg.Counter("npdbench_server_reloads_total").Value(); got != 8 {
		t.Fatalf("reloads counter = %d, want 8", got)
	}
}
