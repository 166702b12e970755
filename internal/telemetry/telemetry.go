// Package telemetry is the unified observability layer: a per-engine (and
// therefore per-session) metrics registry that consolidates the stack's
// stats counters and histograms under stable dotted names, plus span-style
// export of the protocol trace (see trace.go in this package).
//
// The registry does not own most of its counters: protocol layers register
// pointers to the live stats.Counter fields they already increment
// (ops.issued aliases Engine.OpsIssued, nic.msgs aliases NIC.Delivered,
// ...), so enabling telemetry adds no accounting on the hot path — the
// counters were always there; the registry only names them. Histograms are
// registry-owned and observed only when a registry is installed.
//
// Naming scheme: `<subsystem>.<metric>`, lowercase, underscores within a
// word — batch.flushes, batch.ops_coalesced, complete.fastpath_hits,
// complete.probe_fallbacks, nic.msgs, nic.bytes, nic.parked, order.fences,
// latency.put (virtual-time nanoseconds), mpi2.fences, net.bytes.
//
// A nil *Registry is a valid disabled registry: lookups return nil
// histograms (whose Observe is a no-op) and shared discard counters, so
// call sites need no nil checks — though hot paths should check for nil
// once and skip the whole observation.
package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"mpi3rma/internal/stats"
)

// discard absorbs writes through a nil registry's counters and gauges.
var (
	discardCounter stats.Counter
	discardGauge   stats.Gauge
)

// Registry is a named collection of counters, gauges, and histograms.
// The zero value is ready to use; NewRegistry is clearer at call sites.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*stats.Counter
	gauges   map[string]*stats.Gauge
	hists    map[string]*stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// ErrDuplicateName reports a registration collision: the dotted name is
// already bound to a *different* live cell. The first registration wins;
// the duplicate is rejected so two subsystems can never silently alias
// each other's metrics. Re-registering the same cell under the same name
// is idempotent and not an error.
var ErrDuplicateName = errors.New("telemetry: metric name already registered")

// Register names an existing live counter. The registry aliases it — the
// owner keeps incrementing its own field; Snapshot reads the same cells.
// Registering the same counter again under its name is a no-op;
// registering a different counter under a taken name returns
// ErrDuplicateName (wrapped with the name) and leaves the first binding
// in place. No-op on a nil registry.
func (r *Registry) Register(name string, c *stats.Counter) error {
	if r == nil || c == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*stats.Counter)
	}
	if prev, ok := r.counters[name]; ok && prev != c {
		return fmt.Errorf("%w: counter %q", ErrDuplicateName, name)
	}
	r.counters[name] = c
	return nil
}

// RegisterHistogram names an existing live histogram, with the same
// collision semantics as Register.
func (r *Registry) RegisterHistogram(name string, h *stats.Histogram) error {
	if r == nil || h == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*stats.Histogram)
	}
	if prev, ok := r.hists[name]; ok && prev != h {
		return fmt.Errorf("%w: histogram %q", ErrDuplicateName, name)
	}
	r.hists[name] = h
	return nil
}

// Counter returns the counter registered under name, creating a
// registry-owned one on first use. On a nil registry it returns a shared
// discard counter.
func (r *Registry) Counter(name string) *stats.Counter {
	if r == nil {
		return &discardCounter
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*stats.Counter)
	}
	c := r.counters[name]
	if c == nil {
		c = &stats.Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating a registry-owned
// one on first use. On a nil registry it returns a shared discard gauge.
func (r *Registry) Gauge(name string) *stats.Gauge {
	if r == nil {
		return &discardGauge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*stats.Gauge)
	}
	g := r.gauges[name]
	if g == nil {
		g = &stats.Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating a
// registry-owned one on first use. On a nil registry it returns nil, which
// is a valid no-op histogram — capture the pointer once per phase rather
// than calling through the registry on a hot path.
func (r *Registry) Histogram(name string) *stats.Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*stats.Histogram)
	}
	h := r.hists[name]
	if h == nil {
		h = &stats.Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every registered metric's current value. Empty
// histograms are omitted. Nil registries yield a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Counters = make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	for name, h := range r.hists {
		hs := h.Snapshot()
		if hs.Count == 0 {
			continue
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]stats.HistogramSnapshot)
		}
		s.Histograms[name] = hs
	}
	return s
}

// Snapshot is a point-in-time copy of a registry, serializable and
// mergeable across ranks.
type Snapshot struct {
	Counters   map[string]int64                   `json:"counters"`
	Gauges     map[string]int64                   `json:"gauges,omitempty"`
	Histograms map[string]stats.HistogramSnapshot `json:"histograms,omitempty"`
}

// Merge folds another snapshot into this one: counters and gauges sum,
// histograms merge bucket-wise. Callers merging across ranks must decide
// themselves which names are per-rank (summable) and which alias shared
// state; Merge sums everything.
func (s *Snapshot) Merge(o Snapshot) {
	for name, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64)
		}
		s.Gauges[name] += v
	}
	for name, h := range o.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]stats.HistogramSnapshot)
		}
		cur := s.Histograms[name]
		cur.Merge(h)
		s.Histograms[name] = cur
	}
}

// WriteText renders the snapshot as sorted "name value" lines, histograms
// as count/mean/p50/p99/max summaries.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := s.Counters[n]
		if !ok {
			v = s.Gauges[n]
		}
		if _, err := fmt.Fprintf(w, "%-32s %d\n", n, v); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "%-32s count=%d mean=%.0f p50=%d p99=%d max=%d\n",
			n, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
