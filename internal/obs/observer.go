package obs

import "time"

// Observer bundles the observability switches a pipeline component accepts.
// A nil *Observer means "off": every accessor below degrades to the
// zero-cost path, so instrumented code never branches on more than one nil
// check.
type Observer struct {
	// Tracing records a hierarchical span tree per query and keeps it on
	// the answer (obdaq -trace).
	Tracing bool
	// ExecProfile collects the operator-level execution profile of every
	// SQL statement run (obdaq -explain: rows in/out, join algorithms,
	// build sizes, probe counts).
	ExecProfile bool
	// Metrics, when non-nil, receives process-wide counters and histograms.
	Metrics *Registry
	// SlowLog, when non-nil, captures the N slowest queries with their
	// span tree, usage block and operator profiles (/debug/slowlog).
	// Every execution is traced and offered to it.
	SlowLog *SlowLog
}

// StartQuery opens the per-query trace. A trace is collected when tracing
// is on or a slow log is installed; otherwise it returns nil and the
// caller's span calls all no-op.
func (o *Observer) StartQuery(name string) *Trace {
	if o == nil || (!o.Tracing && o.SlowLog == nil) {
		return nil
	}
	return NewTrace(name)
}

// NewUsage returns a per-query resource tracker, or nil when
// observability is off.
func (o *Observer) NewUsage() *Usage {
	if o == nil {
		return nil
	}
	return &Usage{}
}

// FinishQuery settles a query's telemetry: it offers the finished
// execution to the slow log and reports whether the trace stays on the
// answer (only under Tracing; false means the caller drops it).
func (o *Observer) FinishQuery(name string, tr *Trace, dur time.Duration, usage *UsageSnapshot, profiles any) bool {
	if o == nil || tr == nil {
		return false
	}
	if o.SlowLog != nil {
		admitted := o.SlowLog.Offer(&SlowEntry{
			TraceID:    tr.ID,
			Query:      name,
			DurationUS: dur.Microseconds(),
			Usage:      usage,
			Trace:      tr.Root,
			Profiles:   profiles,
		})
		if admitted && o.Metrics != nil {
			o.Metrics.Counter("npdbench_slowlog_captured_total").Inc()
		}
	}
	return o.Tracing
}

// Profiling reports whether operator profiles should be collected.
func (o *Observer) Profiling() bool { return o != nil && o.ExecProfile }

// Registry returns the metrics registry (nil when off).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}
