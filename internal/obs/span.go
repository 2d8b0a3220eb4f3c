// Package obs is the observability layer of the OBDA stack: hierarchical
// query traces (spans), a process-wide metrics registry with Prometheus and
// JSON encodings, per-query usage accounting and the slow-query log. It
// is stdlib-only, safe for concurrent use, and every API is
// nil-receiver-safe so that instrumented code pays (almost) nothing when
// observability is disabled.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are kept as strings;
// SetInt/SetStr format at record time (spans are diagnostics, not a hot
// path — the hot path is the disabled nil-span case).
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one timed stage of a trace. Child spans are appended under the
// parent's lock, so sibling stages may be recorded from concurrent
// goroutines. All methods are safe on a nil receiver and no-op.
type Span struct {
	Name     string        `json:"name"`
	Began    time.Time     `json:"began"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Children []*Span       `json:"children,omitempty"`

	mu    sync.Mutex
	ended bool
}

func newSpan(name string) *Span {
	return &Span{Name: name, Began: time.Now()}
}

// StartChild opens a sub-span under s.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.Duration = time.Since(s.Began)
		s.ended = true
	}
	s.mu.Unlock()
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetStr(key, fmt.Sprint(v))
}

// SetStr records a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: v})
	s.mu.Unlock()
}

// Find returns the first span named name in a depth-first walk of s
// (including s itself), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// StageNames lists the names of every descendant span in depth-first order
// (the span taxonomy of one trace, used by tests and the CLI).
func (s *Span) StageNames() []string {
	if s == nil {
		return nil
	}
	var out []string
	for _, c := range s.Children {
		out = append(out, c.Name)
		out = append(out, c.StageNames()...)
	}
	return out
}

// Render draws the span tree with durations and attributes.
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var sb strings.Builder
	s.render(&sb, "", true, true)
	return sb.String()
}

func (s *Span) render(sb *strings.Builder, prefix string, last, root bool) {
	if root {
		fmt.Fprintf(sb, "%s (%s)%s\n", s.Name, fmtSpanDur(s.Duration), fmtAttrs(s.Attrs))
	} else {
		branch := "├─ "
		if last {
			branch = "└─ "
		}
		fmt.Fprintf(sb, "%s%s%s (%s)%s\n", prefix, branch, s.Name, fmtSpanDur(s.Duration), fmtAttrs(s.Attrs))
	}
	childPrefix := prefix
	if !root {
		if last {
			childPrefix += "   "
		} else {
			childPrefix += "│  "
		}
	}
	for i, c := range s.Children {
		c.render(sb, childPrefix, i == len(s.Children)-1, false)
	}
}

func fmtAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.Key + "=" + a.Val
	}
	return " " + strings.Join(parts, " ")
}

func fmtSpanDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Trace is one query's span tree plus its process-unique identifier.
type Trace struct {
	ID   string `json:"trace_id"`
	Root *Span  `json:"root"`
}

var (
	traceCounter atomic.Uint64
	traceEpoch   = uint64(time.Now().UnixNano())
)

// NewTrace opens a trace whose root span is named name. Close it with
// Finish (or Root.End).
func NewTrace(name string) *Trace {
	n := traceCounter.Add(1)
	return &Trace{
		ID:   fmt.Sprintf("%012x-%06x", traceEpoch&0xffffffffffff, n&0xffffff),
		Root: newSpan(name),
	}
}

// StartSpan opens a child of the root span; nil-safe.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.Root.StartChild(name)
}

// Finish ends the root span.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Root.End()
}

// Render draws the whole trace, id line first.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("trace %s\n%s", t.ID, t.Root.Render())
}

// StageDurations sums descendant span durations by name (a multi-BGP query
// records one span per stage per BGP; the totals are the Table 1 view).
func (t *Trace) StageDurations() map[string]time.Duration {
	if t == nil || t.Root == nil {
		return nil
	}
	out := map[string]time.Duration{}
	var walk func(s *Span)
	walk = func(s *Span) {
		for _, c := range s.Children {
			out[c.Name] += c.Duration
			walk(c)
		}
	}
	walk(t.Root)
	return out
}
