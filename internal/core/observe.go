package core

import (
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// Observation spine (DESIGN.md §12). Event rings — the protocol tracer and
// the flight recorder — take the one typed trace.Event through emit; access
// recorders consume an Access synchronously on the applying goroutine,
// because conflict detection needs all nine of its fields. The metrics
// registry is passive.

// observers is the immutable snapshot Engine.obs points at. A new one
// replaces it whole whenever anything is installed.
type observers struct {
	tracer *trace.Ring
	flight *telemetry.FlightRecorder
	// tel is the metrics registry; lat caches its latency histograms so
	// the request completion path does no registry lookup. Both are set
	// together by EnableTelemetry.
	tel       *telemetry.Registry
	lat       *latencyHists
	recorders []AccessRecorder
}

// noObservers is what observers() answers while nothing is installed.
var noObservers observers

// observers returns the current snapshot, never nil.
func (e *Engine) observers() *observers {
	if o := e.obs.Load(); o != nil {
		return o
	}
	return &noObservers
}

// observe is the one way the snapshot changes: under hookMu, install gets
// a copy of the current snapshot to modify, and the copy is published. An
// install that finds its slot taken leaves the copy alone — that is "the
// first call wins" for every Enable* entry point — and callers read the
// winner out of the returned snapshot.
func (e *Engine) observe(install func(o *observers)) *observers {
	e.hookMu.Lock()
	defer e.hookMu.Unlock()
	next := *e.observers()
	install(&next)
	e.obs.Store(&next)
	return &next
}

// emit records one event of kind at virtual time at. Every event site in
// the engine is one unguarded call of it. It is a guard small enough to
// inline in front of record: with nothing installed a site costs one atomic
// load and one nil test, with no call and no record built.
func (e *Engine) emit(kind trace.Kind, at vtime.Time, peer int, id uint64, a, b int64) {
	if e.obs.Load() != nil {
		e.record(kind, at, peer, id, a, b, nil)
	}
}

// record builds the event and fans it out to the rings that keep its kind;
// it is the one consumer of the snapshot on the event path. The two sites
// that report an error call it directly (the error exists at the site
// already, so storing it allocates nothing).
func (e *Engine) record(kind trace.Kind, at vtime.Time, peer int, id uint64, a, b int64, err error) {
	o := e.obs.Load()
	if o == nil {
		return
	}
	ev := trace.Event{At: at, Kind: kind, Peer: peer, ID: id, A: a, B: b, Err: err}
	dest := kind.Dest()
	if dest&trace.ToTrace != 0 {
		o.tracer.Emit(ev)
	}
	if dest&trace.ToFlight != 0 {
		o.flight.Ring().Emit(ev)
	}
}

// recordAccess hands one applied access to every installed recorder. The
// caller describes what was touched; who asked, under which operation id
// and epoch, is read off the operation's message m.
func (e *Engine) recordAccess(m *simnet.Message, a Access) {
	a.Origin, a.Target = m.Src, e.proc.Rank()
	a.OpID, a.Epoch = m.Hdr[hReq], m.Hdr[hMeta]>>32
	for _, r := range e.observers().recorders {
		r.RecordAccess(a)
	}
}

// SetTracer installs (or clears, with nil) the protocol event ring.
func (e *Engine) SetTracer(r *trace.Ring) {
	e.observe(func(o *observers) { o.tracer = r })
}

// Tracer returns the installed protocol event ring, if any.
func (e *Engine) Tracer() *trace.Ring { return e.observers().tracer }

// AddAccessRecorder installs an access observer beside those already
// there; installing the same recorder again is a no-op, so every Open of a
// rank may ask for the world's checker. Each installed recorder makes
// every applied access pay an observation call; install none outside
// debugging runs.
func (e *Engine) AddAccessRecorder(r AccessRecorder) {
	e.observe(func(o *observers) {
		for _, have := range o.recorders {
			if have == r {
				return
			}
		}
		// A fresh slice: snapshots already published must not change.
		o.recorders = append(o.recorders[:len(o.recorders):len(o.recorders)], r)
	})
}

// AccessRecorders returns the installed access observers.
func (e *Engine) AccessRecorders() []AccessRecorder { return e.observers().recorders }
