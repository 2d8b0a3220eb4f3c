// Package server is the SPARQL-protocol serving layer over the OBDA
// engine: a long-running HTTP endpoint with admission control, per-query
// deadlines wired into the engine's cooperative cancellation, streaming
// result serialization, and quiesced configuration reload. It is the
// layer the paper's QMpH experiments (Sect. 6) assume: a live endpoint
// absorbing sustained concurrent traffic, not a batch replay harness.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"npdbench/internal/core"
	"npdbench/internal/obs"
	"npdbench/internal/r2rml"
)

// Config tunes the serving policy around one engine.
type Config struct {
	// MaxInflight bounds concurrently executing queries; arrivals past the
	// bound get 429 + Retry-After instead of queueing without bound.
	// <= 0 means DefaultMaxInflight.
	MaxInflight int
	// QueryTimeout is the per-query deadline; past it the engine stops
	// cooperatively and the client gets 503. 0 disables the deadline.
	QueryTimeout time.Duration
	// RetryAfter is the advisory backoff stamped on 429 responses.
	// 0 means one second.
	RetryAfter time.Duration
	// Obs carries the observer whose registry and slow log the server
	// exposes on /metrics and /debug/slowlog (nil = those endpoints 404).
	Obs *obs.Observer
}

// DefaultMaxInflight is the admission bound when Config leaves it zero.
const DefaultMaxInflight = 16

// Server answers SPARQL-protocol requests against one engine.
//
// Engine reconfiguration (SetMapping) requires quiesced
// query traffic; the server enforces that contract with a read-write
// lock: every query handler holds the read side while inside the engine,
// and Reload takes the write side, so a reload waits for in-flight
// queries to drain and new arrivals wait for the reload — no query ever
// races a mapping swap.
type Server struct {
	mu  sync.RWMutex // write-held during Reload; read-held around Answer
	eng *core.Engine
	cfg Config
	sem chan struct{} // admission tokens, cap = MaxInflight

	requests  *obs.Counter
	errors    *obs.Counter
	throttled *obs.Counter
	canceled  *obs.Counter
	timeouts  *obs.Counter
	reloads   *obs.Counter
	seconds   *obs.Histogram
	runtime   *obs.RuntimeCollector // refreshed on every /metrics scrape
}

// New wraps an engine in a serving layer.
func New(eng *core.Engine, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{eng: eng, cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight)}
	if reg := cfg.Obs.Registry(); reg != nil {
		s.requests = reg.Counter("npdbench_server_requests_total")
		s.errors = reg.Counter("npdbench_server_errors_total")
		s.throttled = reg.Counter("npdbench_server_throttled_total")
		s.canceled = reg.Counter("npdbench_server_canceled_total")
		s.timeouts = reg.Counter("npdbench_server_timeouts_total")
		s.reloads = reg.Counter("npdbench_server_reloads_total")
		s.seconds = reg.Histogram("npdbench_server_request_seconds", obs.DefDurationBuckets)
		s.runtime = obs.NewRuntimeCollector(reg)
	}
	return s
}

// Engine returns the served engine (tests inspect its pool and metrics).
func (s *Server) Engine() *core.Engine { return s.eng }

// Handler returns the endpoint's route table. Always an explicit mux —
// never the process-global DefaultServeMux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", s.handleSPARQL)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.cfg.Obs != nil && s.cfg.Obs.Metrics != nil {
		reg := s.cfg.Obs.Metrics
		mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Refresh the runtime family on every scrape so goroutine and
			// heap gauges describe the moment of the request. The one
			// collector carries the GC count between scrapes, so the
			// counter grows by the cycles since the last scrape.
			s.runtime.Collect()
			reg.Handler().ServeHTTP(w, r)
		}))
	}
	if s.cfg.Obs != nil && s.cfg.Obs.SlowLog != nil {
		mux.Handle("/debug/slowlog", s.cfg.Obs.SlowLog.Handler())
	}
	return mux
}

// Reload applies a configuration change under the write lock: it waits
// for in-flight queries to drain, runs fn against the quiesced engine,
// and releases traffic. This is the SIGHUP path of obdaqd.
func (s *Server) Reload(fn func(eng *core.Engine)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.eng)
	if s.reloads != nil {
		s.reloads.Inc()
	}
}

// ReloadMapping is the canonical reload: swap the R2RML mapping (which
// re-saturates T-mappings, re-derives constraints, and invalidates the
// plan cache) under quiesced traffic.
func (s *Server) ReloadMapping(mp *r2rml.Mapping) {
	s.Reload(func(eng *core.Engine) { eng.SetMapping(mp) })
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleSPARQL is the SPARQL 1.1 protocol endpoint: GET ?query= and POST
// (form or application/sparql-query), with admission control in front of
// the engine and the client's disconnect/deadline context threaded all
// the way into the SQL operators.
func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	start := obs.Now()
	if s.requests != nil {
		s.requests.Inc()
	}
	req, err := parseProtocolRequest(w, r)
	if err != nil {
		s.clientError(w, err)
		return
	}

	// Admission control: a full semaphore means MaxInflight queries are
	// already executing — shed the arrival instead of queueing it (the
	// open-loop harness measures exactly this behaviour under overload).
	select {
	case s.sem <- struct{}{}:
	default:
		if s.throttled != nil {
			s.throttled.Inc()
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
		http.Error(w, "server at capacity", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.sem }()

	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	// The read lock pairs with Reload's write lock: queries and mapping
	// swaps never overlap.
	s.mu.RLock()
	q, err := s.eng.ParseQuery(req.query)
	if err != nil {
		s.mu.RUnlock()
		s.clientError(w, fmt.Errorf("parsing query: %w", err))
		return
	}
	ans, err := s.eng.AnswerNamedCtx(ctx, q, req.label)
	s.mu.RUnlock()
	if err != nil {
		s.answerError(w, r, err)
		return
	}

	w.Header().Set("Content-Type", req.format.contentType())
	if err := writeResults(w, req.format, ans.ResultSet); err != nil {
		// Mid-stream write failure: the client went away. Status is
		// already committed; just count it.
		if s.canceled != nil {
			s.canceled.Inc()
		}
		return
	}
	if s.seconds != nil {
		s.seconds.Observe(obs.Since(start).Seconds())
	}
}

// clientError reports a malformed request (400), a body past
// maxQueryBytes (413), or a method other than GET and POST (405).
func (s *Server) clientError(w http.ResponseWriter, err error) {
	if s.errors != nil {
		s.errors.Inc()
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	var badMethod *methodError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &badMethod):
		status = http.StatusMethodNotAllowed
		w.Header().Set("Allow", "GET, POST")
	}
	http.Error(w, err.Error(), status)
}

// answerError maps an engine failure onto the protocol: deadline → 503
// with the timeout named, client disconnect → nothing (the connection is
// gone), anything else → 500.
func (s *Server) answerError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if s.timeouts != nil {
			s.timeouts.Inc()
		}
		http.Error(w, fmt.Sprintf("query exceeded deadline %v", s.cfg.QueryTimeout), http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled) || r.Context().Err() != nil:
		if s.canceled != nil {
			s.canceled.Inc()
		}
		// Client is gone; nothing to write.
	default:
		if s.errors != nil {
			s.errors.Inc()
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
