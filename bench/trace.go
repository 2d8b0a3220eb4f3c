package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"npdbench/internal/obs"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around a public entry point or adopted from the engine's own trace.
// Times are nanoseconds since the recorder was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = no parent
	Req    int64  `json:"req"`    // spans of one request share it
	Name   string `json:"name"`
	Query  string `json:"query,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is shared by the
// load generator's workers and the server-side middleware.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span // guarded by mu
	nextID int64  // guarded by mu
}

func newRecorder() *recorder { return &recorder{origin: obs.Now()} }

// reserve hands out a span id before the span ends, so a child recorded
// elsewhere (the server side of a loopback request) can name its parent.
func (r *recorder) reserve() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// put records a finished span under a reserved id.
func (r *recorder) put(id, parent, req int64, name, query string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name, Query: query,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// add records a finished span and returns its id.
func (r *recorder) add(parent, req int64, name, query string, start, end time.Time) int64 {
	id := r.reserve()
	r.put(id, parent, req, name, query, start, end)
	return id
}

// adopt copies the engine's span subtree under parent, keeping the engine's
// own start and duration.
func (r *recorder) adopt(parent, req int64, query string, s *obs.Span) {
	if s == nil {
		return
	}
	id := r.add(parent, req, s.Name, query, s.Began, s.Began.Add(s.Duration))
	for _, c := range s.Children {
		r.adopt(id, req, query, c)
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes computes, for every span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other and
// may stick out of the parent; only covered time inside the parent counts.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request headers that carry the span context over loopback.
const (
	headerReq    = "X-Bench-Req"
	headerParent = "X-Bench-Parent"
	headerQuery  = "X-Bench-Query"
)

// serverSpans is the middleware of the traced pass: it records a `server`
// span around the endpoint's ServeHTTP, parented to the client-side `net`
// span named in the request headers.
func (r *recorder) serverSpans(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := obs.Now()
		next.ServeHTTP(w, req)
		end := obs.Now()
		reqID, err := strconv.ParseInt(req.Header.Get(headerReq), 10, 64)
		if err != nil {
			return // not a benchmark request (warm-up)
		}
		parent, err := strconv.ParseInt(req.Header.Get(headerParent), 10, 64)
		if err != nil {
			parent = 0
		}
		r.add(parent, reqID, "server", req.Header.Get(headerQuery), start, end)
	})
}
