package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// SlowEntry is one captured slow query: identity, duration, the usage
// block, the full span tree, and the operator profiles (typed `any` so obs
// does not import the executor; the engine stores its []*sqldb.OpProfile
// and JSON encoding preserves it).
type SlowEntry struct {
	TraceID    string         `json:"trace_id"`
	Query      string         `json:"query,omitempty"`
	DurationUS int64          `json:"duration_us"`
	Usage      *UsageSnapshot `json:"usage,omitempty"`
	Trace      *Span          `json:"trace,omitempty"`
	Profiles   any            `json:"profiles,omitempty"`
}

// SlowLog is a bounded capture ring of the N slowest queries seen. Offers
// are O(capacity) scans (capacity is small — tens of entries), guarded by
// one mutex; once full, an offer only displaces the current fastest
// resident when it is slower. Nil-safe throughout.
type SlowLog struct {
	mu       sync.Mutex
	capacity int
	entries  []*SlowEntry
	offered  int64
	evicted  int64
}

// DefaultSlowLogCapacity bounds the ring when the caller passes n <= 0.
const DefaultSlowLogCapacity = 32

// NewSlowLog returns a ring keeping the n slowest entries.
func NewSlowLog(n int) *SlowLog {
	if n <= 0 {
		n = DefaultSlowLogCapacity
	}
	return &SlowLog{capacity: n, entries: make([]*SlowEntry, 0, n)}
}

// Offer submits a finished query for capture. Returns true when the entry
// was admitted (ring not full, or slower than the current fastest).
func (l *SlowLog) Offer(e *SlowEntry) bool {
	if l == nil || e == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.offered++
	if len(l.entries) < l.capacity {
		l.entries = append(l.entries, e)
		return true
	}
	min := 0
	for i := 1; i < len(l.entries); i++ {
		if l.entries[i].DurationUS < l.entries[min].DurationUS {
			min = i
		}
	}
	if e.DurationUS <= l.entries[min].DurationUS {
		l.evicted++
		return false
	}
	l.entries[min] = e
	l.evicted++
	return true
}

// Len returns the number of captured entries.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Snapshot returns the captured entries, slowest first.
func (l *SlowLog) Snapshot() []*SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]*SlowEntry(nil), l.entries...)
	l.mu.Unlock()
	sortSlowest(out)
	return out
}

func sortSlowest(es []*SlowEntry) {
	sort.SliceStable(es, func(i, j int) bool { return es[i].DurationUS > es[j].DurationUS })
}

// slowLogJSON is the document served at /debug/slowlog.
type slowLogJSON struct {
	Capacity int          `json:"capacity"`
	Captured int          `json:"captured"`
	Offered  int64        `json:"offered"`
	Evicted  int64        `json:"evicted"`
	Entries  []*SlowEntry `json:"entries"`
}

// RenderJSON encodes the ring (slowest first) with its capture counters —
// the same document /debug/slowlog serves and `obdaq -slowlog` prints.
// Counters and entries come from one critical section, so the document
// always satisfies offered == captured + evicted.
func (l *SlowLog) RenderJSON() ([]byte, error) {
	doc := slowLogJSON{Entries: []*SlowEntry{}}
	if l != nil {
		l.mu.Lock()
		doc.Capacity = l.capacity
		doc.Offered = l.offered
		doc.Evicted = l.evicted
		doc.Entries = append(doc.Entries, l.entries...)
		l.mu.Unlock()
		sortSlowest(doc.Entries)
		doc.Captured = len(doc.Entries)
	}
	return json.MarshalIndent(doc, "", "  ")
}

// Handler serves the slow-query log as JSON (mount at /debug/slowlog).
func (l *SlowLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		b, err := l.RenderJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
}
