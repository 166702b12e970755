package core

import (
	"fmt"

	"mpi3rma/internal/stats"
	"mpi3rma/internal/telemetry"
)

// Request latency kinds: which latency.* histogram a request's completion
// observes. Zero means "do not observe" — the fields are only populated
// when telemetry is enabled, keeping the disabled hot path allocation- and
// branch-cheap.
const (
	latNone uint8 = iota
	latPut
	latGet
	latAcc
	latRMW
	latComplete // a whole Complete call, not a request
	numLat
)

// latencyHists caches the registry's latency histograms (virtual-time
// nanoseconds from issue to completion), indexed by latency kind, so the
// completion path reads them out of the observer snapshot instead of
// looking them up in the registry.
type latencyHists [numLat]*stats.Histogram

// latKindOf maps an issue-path operation to its latency histogram kind.
func latKindOf(op OpType) uint8 {
	switch op {
	case OpPut:
		return latPut
	case OpGet:
		return latGet
	case OpAccumulate:
		return latAcc
	}
	return latNone
}

// EnableTelemetry installs a metrics registry on the engine and registers
// every engine, NIC, and network counter under its stable dotted name
// (see package telemetry for the naming scheme). The registry aliases the
// live counters the engine already maintains, so enabling telemetry adds
// no accounting work to the hot path; only the latency histograms are new,
// and they are observed only while a registry is installed.
//
// Passing nil creates a fresh registry. The first call wins and later
// calls return the installed registry unchanged (like Attach), so layers
// above can share one registry per rank.
func (e *Engine) EnableTelemetry(reg *telemetry.Registry) *telemetry.Registry {
	if reg := e.Metrics(); reg != nil {
		return reg // Session.Metrics asks on every call: no lock, no new snapshot
	}
	return e.observe(func(o *observers) {
		if o.tel != nil {
			return
		}
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		e.registerCounters(reg)
		o.tel = reg
		o.lat = &latencyHists{
			latPut:      reg.Histogram("latency.put"),
			latGet:      reg.Histogram("latency.get"),
			latAcc:      reg.Histogram("latency.accumulate"),
			latRMW:      reg.Histogram("latency.rmw"),
			latComplete: reg.Histogram("latency.complete"),
		}
	}).tel
}

// registerCounters names the engine's, NIC's and network's live counters
// in reg. Called under hookMu.
func (e *Engine) registerCounters(reg *telemetry.Registry) {
	reg.Register("ops.issued", &e.OpsIssued)
	reg.Register("ops.applied", &e.OpsApplied)
	reg.Register("acks.sent", &e.AcksSent)
	reg.Register("batch.flushes", &e.Batches)
	reg.Register("batch.ops_coalesced", &e.BatchedOps)
	reg.Register("batch.singleton_ops", &e.SingletonOps)
	reg.Register("complete.calls", &e.CompleteCalls)
	reg.Register("complete.fastpath_hits", &e.FastPaths)
	reg.Register("complete.probe_fallbacks", &e.ProbeFallbacks)
	reg.Register("complete.probes_received", &e.Probes)
	reg.Register("complete.notifies_received", &e.Notifies)
	reg.Register("order.fences", &e.FenceStalls)
	reg.Register("order.held_ops", &e.HeldOps)
	reg.Register("lock.grants", &e.lock.Grants)
	reg.Register("lock.contended", &e.lock.Contended)

	if e.shards != nil {
		// Per-shard cells of the sharded apply engine. The task counts are
		// the per-shard watermarks: sum(shard.tasks.*) plus shard.bypass
		// reconciles against ops.applied.
		reg.Register("shard.bypass", &e.ShardBypass)
		reg.Register("shard.designated", &e.ShardDesignated)
		reg.Register("shard.panics", &e.ShardPanics)
		for i := range e.shards {
			reg.Register(fmt.Sprintf("shard.tasks.%d", i), &e.shards[i].tasks)
			reg.RegisterHistogram(fmt.Sprintf("shard.apply_latency.%d", i), &e.shards[i].latency)
		}
	}

	nic := e.proc.NIC()
	reg.Register("nic.msgs", &nic.Delivered)
	reg.Register("nic.bytes", &nic.DeliveredBytes)
	reg.Register("nic.parked", &nic.Parked)
	reg.Register("nic.soft_acks", &nic.SoftAcks)
	reg.Register("nic.bad_req", &nic.BadReq)

	// The network counters are world-global (every rank's endpoint shares
	// one Network); exporters summing per-rank snapshots must count net.*
	// once, not per rank.
	net := nic.Endpoint().Network()
	reg.Register("net.msgs", &net.Msgs)
	reg.Register("net.logical_ops", &net.LogicalOps)
	reg.Register("net.bytes", &net.Bytes)
	reg.Register("net.retries", &net.Retries)
	reg.Register("net.retransmit_bytes", &net.RetransmitBytes)
	reg.Register("net.dup_dropped", &net.DupDropped)
	reg.Register("net.corrupt_rejected", &net.CorruptRejected)
	reg.Register("net.faults_injected.dropped", &net.FaultsDropped)
	reg.Register("net.faults_injected.duplicated", &net.FaultsDuplicated)
	reg.Register("net.faults_injected.delayed", &net.FaultsDelayed)
	reg.Register("net.faults_injected.corrupted", &net.FaultsCorrupted)

}

// Metrics returns the engine's metrics registry, or nil before
// EnableTelemetry.
func (e *Engine) Metrics() *telemetry.Registry { return e.observers().tel }

// PairCounters is one (origin, target) pair's origin-side accounting, for
// counter reconciliation: Sent = Batched + Singleton always, and after a
// successful Complete the target's confirmation counter has caught up
// (Confirmed == Sent).
type PairCounters struct {
	// Sent counts operations issued to the target.
	Sent int64
	// Batched counts the subset that rode an aggregated message.
	Batched int64
	// Singleton counts the subset that paid its own wire message.
	Singleton int64
	// WillConfirm counts operations whose application reports a delivery
	// counter.
	WillConfirm int64
	// Confirmed is the highest cumulative applied count the target has
	// reported back.
	Confirmed int64
}

// PairCounters returns this rank's origin-side accounting toward a world
// rank.
func (e *Engine) PairCounters(world int) PairCounters {
	var pc PairCounters
	e.mu.Lock()
	if ts := e.targets[world]; ts != nil {
		pc.Sent = ts.sent
		pc.Batched = ts.batched
		pc.Singleton = ts.singleton
		pc.WillConfirm = ts.willConfirm
	}
	e.mu.Unlock()
	e.cmplMu.Lock()
	pc.Confirmed = e.confirmed[world].count
	e.cmplMu.Unlock()
	return pc
}

// AppliedFrom returns this rank's target-side count of operations applied
// from a world rank — the delivery counter the notified-completion
// protocol reports back to that origin.
func (e *Engine) AppliedFrom(origin int) int64 {
	return e.appliedCount(origin)
}
