package core

import (
	"mpi3rma/internal/telemetry"
)

// Flight-recorder integration: the engine feeds the bounded event ring
// from its watermark and fault hooks (noteApplied, noteConfirmed, the
// retransmit observer, failOutstanding) and supplies the health
// snapshot postmortems embed. The disabled path — no recorder installed —
// is one atomic pointer load per feed site and allocates nothing, pinned
// by TestFlightRecorderDisabledZeroAlloc.

// EnableFlightRecorder installs a postmortem flight recorder on the
// engine. The recorder captures recent protocol milestones and
// auto-dumps a JSON postmortem (recent events, per-rank health, sticky
// errors, retry state, queue depths, metric deltas) the first time a
// link fails or the apply engine faults. The first call wins; later
// calls return the installed recorder unchanged (like Attach). If
// telemetry is already enabled the registry becomes the recorder's
// metric-delta baseline.
func (e *Engine) EnableFlightRecorder(cfg telemetry.FlightConfig) *telemetry.FlightRecorder {
	e.hookMu.Lock()
	defer e.hookMu.Unlock()
	if cur := e.flight.Load(); cur != nil {
		return cur
	}
	cfg.Rank = e.proc.Rank()
	f := telemetry.NewFlightRecorder(cfg)
	f.SetHealth(e.Health)
	if reg := e.tel.Load(); reg != nil {
		f.SetBaseline(reg)
	}
	e.flight.Store(f)
	return f
}

// FlightRecorder returns the installed flight recorder, or nil.
func (e *Engine) FlightRecorder() *telemetry.FlightRecorder {
	return e.flight.Load()
}

// Health assembles this rank's point-in-time health report: sticky
// errors, per-link relay state and retry budget, shard queue depths,
// completion-queue occupancy, and per-origin applied watermarks. It is
// what postmortems embed and what rmatop renders.
func (e *Engine) Health() telemetry.HealthReport {
	h := telemetry.HealthReport{
		Rank:  e.proc.Rank(),
		VTime: int64(e.proc.Now()),
	}

	e.cmplMu.Lock()
	if e.applyErr != nil {
		h.Sticky = append(h.Sticky, e.applyErr.Error())
	}
	for _, err := range e.failedRanks {
		h.Sticky = append(h.Sticky, err.Error())
	}
	for _, err := range e.failedLinks {
		h.Sticky = append(h.Sticky, err.Error())
	}
	e.cmplMu.Unlock()

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

	if pool := e.shardPool; pool != nil {
		for s := 0; s < pool.Shards(); s++ {
			st := pool.Stats(s)
			h.Shards = append(h.Shards, telemetry.ShardHealth{
				Shard:    s,
				Depth:    st.Depth.Value(),
				Tasks:    st.Tasks.Value(),
				Steals:   st.Steals.Value(),
				Overflow: st.Overflow.Value(),
			})
		}
	}

	if q := e.evq.Load(); q != nil {
		h.Queue = &telemetry.QueueHealth{
			Depth:     q.Len(),
			Cap:       q.Cap(),
			Published: q.Published.Value(),
			Dropped:   q.Dropped.Value(),
		}
	}

	e.tgtMu.Lock()
	if len(e.applied) > 0 {
		h.AppliedFrom = make(map[int]int64, len(e.applied))
		for src, n := range e.applied {
			h.AppliedFrom[src] = n
		}
	}
	e.tgtMu.Unlock()
	return h
}
