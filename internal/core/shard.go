package core

import (
	"fmt"

	"mpi3rma/internal/stats"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// Sharded target-side apply (DESIGN.md §10).
//
// With Options.ApplyShards > 1 the exposed byte space is partitioned into
// fixed ranges of stride ceil(region/shards) per exposure, and each decoded
// incoming operation is routed to the shard its byte range falls in. A
// shard is a modelled lane index, not a host thread: the operation's apply
// cost is charged to lane shard mod ApplyWorkers, and the apply runs at
// once, on the delivering goroutine, under the NIC's delivery token.
// Routing order is therefore apply order, so per-shard FIFO and "a
// designated operation observes everything routed before it" hold by
// construction, and the lanes alone make the modelled apply time shrink as
// workers are added (E14).
//
// Range-spanning operations (their bytes cross a shard boundary) and
// ordered operations (AttrOrdering) route to the designated shard, shard 0,
// which is lane 0. Atomic operations bypass the shards entirely and keep
// their configured serializer mechanism: atomicity is a cross-operation
// promise the serializer already implements.
//
// The watermark join: every applied operation — sharded or not — still
// funnels through noteApplied under the engine's mu, the cumulative delivery counter
// Complete/Order/fence and completion probes observe. The per-shard task
// counts exist for telemetry and reconciliation:
// sum(shard.tasks.*) + shard.bypass == ops.applied.

// shardCells are one shard's telemetry cells (shard.tasks.N and
// shard.apply_latency.N).
type shardCells struct {
	tasks stats.Counter
	// latency observes end-ready per task, in virtual nanoseconds.
	latency stats.Histogram
}

// routeShard maps an access of ext bytes at displacement disp into a region
// of size bytes split into n shards: the shard holding its bytes, or the
// designated shard 0 when the access spans a shard boundary or is ordered.
// Out-of-range displacements (the deposit will reject them) are clamped so
// routing never faults, and a zero-extent access still occupies a routing
// point.
func routeShard(size, n, disp, ext int, ordered bool) (shard int, designated bool) {
	stride := max((size+n-1)/n, 1)
	ext = max(ext, 1)
	s1 := clampShard(disp/stride, n)
	s2 := clampShard((disp+ext-1)/stride, n)
	if ordered || s1 != s2 {
		return 0, true
	}
	return s1, false
}

// clampShard pins a computed shard index into [0, n).
func clampShard(s, n int) int {
	return min(max(s, 0), n-1)
}

// scheduleApplyRange routes r's decoded target update of nbytes with a
// known byte range [disp, disp+ext) inside its exposure's region, charges
// its shard's lane and applies it. It falls back to the serial
// scheduleApply path when sharding is off, the operation is atomic, or the
// exposure is unknown (the deposit will fail and be counted).
func (e *Engine) scheduleApplyRange(r *applyOp, at vtime.Time, nbytes, ext int) {
	if e.shards == nil || r.atomic || r.exp == nil {
		e.scheduleApply(r, at, nbytes)
		return
	}
	e.proc.NIC().AssertToken("the shard lanes")
	s, designated := routeShard(r.exp.region.Size, len(e.shards), r.disp, ext, r.ordered)
	if designated {
		e.ShardDesignated.Inc()
	}
	r.cost = e.applyCost(nbytes)
	end := e.shardLanes[s%len(e.shardLanes)].Complete(at, r.cost)
	// Counted before the apply, whose completion report may let an
	// observer read the cells.
	e.shards[s].tasks.Inc()
	e.shards[s].latency.Observe(int64(end - at))
	e.applyShard(s, r, end)
}

// applyShard runs r's apply, recovering a panic so it never unwinds into
// the goroutine that delivered the operation — often its sender. The rank's
// memory may be half-written, so the whole engine is failed sticky.
func (e *Engine) applyShard(s int, r *applyOp, end vtime.Time) {
	defer func() {
		if p := recover(); p != nil {
			e.ShardPanics.Inc()
			e.onApplyPanic(s, p)
		}
	}()
	r.Apply(end)
}

// onApplyPanic fails the engine with a wrapped ErrApplyFault for a panic
// recovered from shard s's apply.
func (e *Engine) onApplyPanic(shard int, recovered any) {
	e.failEngine(fmt.Errorf("core: %w: shard %d apply: %v", ErrApplyFault, shard, recovered))
}

// failEngine records an engine-fatal error: every outstanding request,
// pending batch, and Select waiter fails with it, and completion waiters
// are woken so Complete/Order/fence observe it instead of hanging on
// counters that will never advance.
func (e *Engine) failEngine(err error) {
	at := e.proc.Now()
	e.mu.Lock()
	first := e.applyErr.err == nil
	if first {
		e.applyErr = fault{err, at}
	}
	e.mu.Unlock()
	if first {
		e.postFailure(trace.KindApplyFault, AllRanks, at)
	}
}
