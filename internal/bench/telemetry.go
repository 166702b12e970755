package bench

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mpi3rma/internal/core"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/trace"
)

// telemetryOn is the harness-wide telemetry switch. When set (rmabench
// -metrics / -trace), every experiment cell enables the metrics registry
// and a trace ring on each rank it builds, and the experiment Result
// carries a merged TelemetrySummary sidecar.
var telemetryOn atomic.Bool

// SetTelemetry switches harness telemetry collection on or off.
func SetTelemetry(on bool) { telemetryOn.Store(on) }

// TelemetrySummary is an experiment's machine-readable telemetry sidecar:
// the metrics snapshot merged across every rank (and every cell of a
// sweep), plus the cross-rank protocol timeline and the per-operation
// spans reconstructed from it (from the last cell that recorded events —
// one cell's timeline is enough to follow an operation end to end, and
// keeping all of a sweep's events would dwarf the measurements).
type TelemetrySummary struct {
	Metrics telemetry.Snapshot `json:"metrics"`
	Events  []trace.RankEvent  `json:"events,omitempty"`
	Spans   []telemetry.Span   `json:"spans,omitempty"`
}

// telemetryCollector gathers one world's per-rank registries and trace
// rings. A nil collector (telemetry off) is valid and does nothing, so
// cell runners call attach/summary unconditionally.
type telemetryCollector struct {
	mu    sync.Mutex
	regs  map[int]*telemetry.Registry
	rings map[int]*trace.Ring
}

// newCollector returns a collector, or nil when telemetry is off.
func newCollector() *telemetryCollector {
	if !telemetryOn.Load() {
		return nil
	}
	return &telemetryCollector{
		regs:  make(map[int]*telemetry.Registry),
		rings: make(map[int]*trace.Ring),
	}
}

// attach enables telemetry and tracing on one rank's engine and records
// the handles for the post-run merge. Safe to call from the world's rank
// goroutines concurrently.
func (c *telemetryCollector) attach(rank int, e *core.Engine) {
	if c == nil {
		return
	}
	reg := e.EnableTelemetry(nil)
	if e.Tracer() == nil {
		e.SetTracer(trace.New(0))
	}
	c.mu.Lock()
	c.regs[rank] = reg
	c.rings[rank] = e.Tracer()
	c.mu.Unlock()
}

// summary merges the attached ranks into one TelemetrySummary. The net.*
// counters alias world-global cells that every rank's registry sees, so
// they are taken from one rank only; everything else sums across ranks.
func (c *telemetryCollector) summary() *TelemetrySummary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ranks := make([]int, 0, len(c.regs))
	for r := range c.regs {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var sum TelemetrySummary
	for i, r := range ranks {
		snap := c.regs[r].Snapshot()
		if i > 0 {
			for name := range snap.Counters {
				if strings.HasPrefix(name, "net.") {
					delete(snap.Counters, name)
				}
			}
		}
		sum.Metrics.Merge(snap)
	}
	perRank := make(map[int][]trace.Event, len(c.rings))
	for r, ring := range c.rings {
		perRank[r] = ring.Snapshot()
	}
	sum.Events = trace.MergeRanks(perRank)
	sum.Spans = telemetry.Spans(sum.Events)
	return &sum
}

// absorbTelemetry folds one cell's summary into the experiment's sidecar:
// metrics accumulate across cells, the timeline is replaced so the sidecar
// ends up with the last recorded cell's events and spans.
func (r *Result) absorbTelemetry(t *TelemetrySummary) {
	if t == nil {
		return
	}
	if r.Telemetry == nil {
		r.Telemetry = &TelemetrySummary{}
	}
	r.Telemetry.Metrics.Merge(t.Metrics)
	if len(t.Events) > 0 {
		r.Telemetry.Events = t.Events
		r.Telemetry.Spans = t.Spans
	}
}

// noteTelemetry appends the latency histogram percentiles (virtual-time
// nanoseconds, from the fixed-bucket stats.Histogram) to the experiment
// notes, so the human-readable report carries the same percentiles the
// JSON sidecar does.
func (r *Result) noteTelemetry() {
	if r.Telemetry == nil || len(r.Telemetry.Metrics.Histograms) == 0 {
		return
	}
	names := make([]string, 0, len(r.Telemetry.Metrics.Histograms))
	for n := range r.Telemetry.Metrics.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.Telemetry.Metrics.Histograms[n]
		r.Notef("telemetry %s: count=%d p50<=%dns p99<=%dns max=%dns (vtime)",
			n, h.Count, h.Quantile(0.5), h.Quantile(0.99), h.Max)
	}
}

// WriteMetricsJSON emits the experiment's merged metrics snapshot as
// indented JSON. An experiment run without telemetry writes an empty
// snapshot rather than failing, so pipelines need no conditionals.
func (r *Result) WriteMetricsJSON(w io.Writer) error {
	if r.Telemetry == nil {
		return telemetry.Snapshot{}.WriteJSON(w)
	}
	return r.Telemetry.Metrics.WriteJSON(w)
}

// WriteTraceJSON emits the experiment's trace sidecar (merged timeline
// plus the spans reconstructed from it) as indented JSON.
func (r *Result) WriteTraceJSON(w io.Writer) error {
	var dump struct {
		Events []trace.RankEvent `json:"events"`
		Spans  []telemetry.Span  `json:"spans"`
	}
	if r.Telemetry != nil {
		dump.Events, dump.Spans = r.Telemetry.Events, r.Telemetry.Spans
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// CriticalPath decomposes the experiment's recorded timeline into the
// per-stage critical-path report (see telemetry.AnalyzeCriticalPath).
// An experiment run without telemetry yields an empty report.
func (r *Result) CriticalPath() *telemetry.CriticalPathReport {
	if r.Telemetry == nil {
		return telemetry.AnalyzeCriticalPath(nil)
	}
	return telemetry.AnalyzeCriticalPath(r.Telemetry.Events)
}

// WriteCritPathJSON emits the experiment's critical-path stage breakdown
// as indented JSON (the rmabench -critpath sidecar).
func (r *Result) WriteCritPathJSON(w io.Writer) error {
	return r.CriticalPath().WriteJSON(w)
}
