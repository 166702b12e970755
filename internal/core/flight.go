package core

import (
	"mpi3rma/internal/telemetry"
)

// Flight-recorder integration: the recorder's ring takes the flight kinds
// of the engine's one event stream (emit, observe.go) — watermark
// movements, request ends, retransmissions, faults, recovery steps — and
// the engine supplies the health snapshot postmortems embed.

// EnableFlightRecorder installs a postmortem flight recorder on the
// engine. The recorder captures recent protocol milestones and
// auto-dumps a JSON postmortem (recent events, per-rank health, sticky
// errors, retry state, shard task counts, metric deltas) the first time a
// link fails or the apply engine faults. The first call wins; later
// calls return the installed recorder unchanged (like Attach). If
// telemetry is already enabled the registry becomes the recorder's
// metric-delta baseline.
func (e *Engine) EnableFlightRecorder(cfg telemetry.FlightConfig) *telemetry.FlightRecorder {
	return e.observe(func(o *observers) {
		if o.flight != nil {
			return
		}
		cfg.Rank = e.proc.Rank()
		o.flight = telemetry.NewFlightRecorder(cfg)
		o.flight.SetHealth(e.Health)
		o.flight.SetBaseline(o.tel)
	}).flight
}

// FlightRecorder returns the installed flight recorder, or nil.
func (e *Engine) FlightRecorder() *telemetry.FlightRecorder { return e.observers().flight }

// Health assembles this rank's point-in-time health report: sticky
// errors, what its blocked calls wait for, per-link relay state and retry
// budget, per-shard task counts, and per-origin applied watermarks. It is
// what postmortems embed and what rmatop renders.
func (e *Engine) Health() telemetry.HealthReport {
	h := telemetry.HealthReport{
		Rank:  e.proc.Rank(),
		VTime: int64(e.proc.Now()),
	}

	// One line per peer a sticky failure cuts off, through the one
	// precedence: an apply fault cuts off every peer and is listed once.
	e.cmplMu.Lock()
	var last error
	for peer := range e.confirmed {
		if f := e.stickyLocked(peer); f.err != nil && f.err != last {
			h.Sticky = append(h.Sticky, f.err.Error())
			last = f.err
		}
	}
	e.cmplMu.Unlock()
	h.Waits = e.waits()

	// Membership liveness: meaningful once the failure detector has run
	// (a world without faults reports every rank ALIVE and spares SPARE).
	if w := e.proc.World(); w != nil {
		states := w.Members().States()
		h.Liveness = make([]string, len(states))
		for r, s := range states {
			h.Liveness[r] = s.String()
		}
	}

	nic := e.proc.NIC()
	h.RetryBudget = nic.RetryBudget()
	for _, ls := range nic.RelayStatus() {
		h.Links = append(h.Links, telemetry.LinkHealth{
			Peer:     ls.Peer,
			Down:     ls.Down,
			Inflight: ls.Inflight,
			Attempts: ls.Attempts,
		})
	}

	for s := range e.shards {
		h.Shards = append(h.Shards, telemetry.ShardHealth{Shard: s, Tasks: e.shards[s].tasks.Value()})
	}

	e.tgtMu.Lock()
	for src := range e.applied {
		if n := e.applied[src].count; n > 0 {
			if h.AppliedFrom == nil {
				h.AppliedFrom = make(map[int]int64)
			}
			h.AppliedFrom[src] = n
		}
	}
	e.tgtMu.Unlock()
	return h
}
