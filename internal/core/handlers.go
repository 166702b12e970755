package core

import (
	"fmt"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// gateOrdered lets r start at once when its operation is unordered (seq 0)
// and otherwise enforces the per-origin ordered stream: out-of-order
// arrivals are buffered until every predecessor has started — the "counter
// for messages" software support the paper prescribes for networks that do
// not order messages themselves.
func (e *Engine) gateOrdered(r *applyOp, at vtime.Time) {
	src, seq := r.m.Src, r.m.Hdr[hSeq]
	if seq == 0 {
		r.start(at)
		return
	}
	r.heldAt = at
	e.proc.NIC().AssertToken("the reorder buffer")
	rb := e.reorder[src]
	if rb == nil {
		rb = &reorderBuf{held: make(map[uint64]*applyOp)}
		e.reorder[src] = rb
	}
	if seq != rb.expected+1 {
		rb.held[seq] = r
		e.HeldOps.Inc()
		return
	}
	// This op is next; it may release a run of held successors, chained
	// behind it in stream order.
	rb.expected = seq
	for tail := r; ; tail = tail.next {
		h, ok := rb.held[rb.expected+1]
		if !ok {
			break
		}
		rb.expected++
		delete(rb.held, rb.expected)
		tail.next = h
	}
	// A held op cannot start before the op that released it.
	chain := vtime.Time(0)
	for r != nil {
		next := r.next
		r.next = nil
		chain = vtime.Later(chain, r.heldAt)
		r.start(chain) // r may be released by the time this returns
		r = next
	}
}

// scheduleApply routes r's target memory update of nbytes through the
// appropriate serialization path and virtual-time lane; r.Apply runs at the
// scheduled time.
//
//   - Non-atomic updates run inline on per-origin lanes: concurrent
//     origins' deposits overlap in modelled time, as independent DMA
//     streams would.
//   - Atomic updates serialize on the mechanism configured at this target:
//     the communication-thread queue, the progress queue, or (under the
//     coarse lock, which the origin already holds) the single atomic lane.
func (e *Engine) scheduleApply(r *applyOp, at vtime.Time, nbytes int) {
	if e.shards != nil {
		// Sharding is on but this update does not route to a shard (atomic,
		// or a caller without range information); counted so shard
		// telemetry reconciles against ops.applied.
		e.ShardBypass.Inc()
	}
	r.cost = e.applyCost(nbytes)
	e.proc.NIC().AssertToken("the apply lanes")
	if !r.atomic {
		_, end := e.lanes[r.m.Src].Reserve(at, r.cost)
		r.Apply(end)
		return
	}
	switch e.opts.Atomicity {
	case serializer.MechThread:
		r.Apply(e.applyQ.Charge(at, r.cost))
	case serializer.MechProgress:
		e.progQ.Submit(serializer.Task{Ready: at, Cost: r.cost, Op: r})
		e.bell.Ring()
	default:
		_, end := e.atomicLane.Reserve(at, r.cost)
		r.Apply(end)
	}
}

// finishApply performs the bookkeeping shared by every applied operation:
// probe accounting, acknowledgement or notification, coarse-lock release.
// It returns the cumulative applied count so reply-bearing kinds (get, RMW)
// can piggyback the delivery counter on their replies. The apply event's B
// is r.cost, the modelled apply duration scheduled — so the critical-path
// analyzer can split target-side time into queueing vs applying — and 0 on
// error paths that never scheduled one.
func (e *Engine) finishApply(r *applyOp, attrs Attr, end vtime.Time) int64 {
	m := r.m
	count := e.noteApplied(m.Src, end)
	if attrs&AttrRemoteComplete != 0 {
		ack := e.newMsg(m.Src, kAck, 0)
		ack.Hdr[hReq] = m.Hdr[hReq]
		ack.Hdr[hCount] = uint64(count)
		// Atomic updates are applied by software, so their ack is a
		// software echo; so is every ack on a network that cannot report
		// remote completion (E4).
		e.sendAck(end, ack, r.atomic)
		e.AcksSent.Inc()
	} else if attrs&AttrNotify != 0 {
		// A notified operation without remote completion still reports its
		// delivery counter (the ack above already carries it).
		e.sendNotify(m.Src, 0, count, end, r.atomic)
	}
	if m.Flags&flagUnlockAfter != 0 {
		e.releaseLockLocal(m.Src, end)
	}
	e.emit(trace.KindApply, end, m.Src, m.Hdr[hReq], int64(len(m.Payload)), int64(r.cost))
	return count
}

// startPut decodes the body and schedules the deposit.
func (r *applyOp) startPut(at vtime.Time) {
	e := r.e
	r.exp = e.lookupExposure(r.handle)
	var err error
	r.tdt, r.scale, r.wire, err = parsePutHead(r.m.Payload, r.accOp)
	if err != nil || r.exp == nil {
		// Count the op so completion probes do not deadlock, but the
		// deposit is lost (malformed body or access to unexposed memory).
		e.proc.NIC().BadReq.Inc()
		r.fin(at)
		return
	}
	e.scheduleApplyRange(r, at, len(r.wire), datatype.ExtentOf(r.tcount, r.tdt))
}

// startGet decodes the requested layout and schedules the read.
func (r *applyOp) startGet(at vtime.Time) {
	e := r.e
	r.exp = e.lookupExposure(r.handle)
	var err error
	r.tdt, _, _, err = parsePutHead(r.m.Payload, AccNone)
	if err != nil || r.exp == nil {
		// fin replies with an empty payload, so the origin's request errors
		// out rather than hanging.
		e.proc.NIC().BadReq.Inc()
		r.fin(at)
		return
	}
	e.scheduleApplyRange(r, at, datatype.PackedSize(r.tcount, r.tdt), datatype.ExtentOf(r.tcount, r.tdt))
}

// applyGet packs the layout straight out of this rank's memory into the
// reply fin will send. A layout reaching past its exposure fails as an
// unexposed handle does.
func (r *applyOp) applyGet(end vtime.Time) {
	e := r.e
	ext := datatype.ExtentOf(r.tcount, r.tdt)
	r.reply = e.newMsg(r.m.Src, kGetReply, datatype.PackedSize(r.tcount, r.tdt))
	if !r.exp.region.Contains(r.disp, ext) ||
		e.packFrom(r.reply.Payload, r.exp.region.Offset+r.disp, r.tcount, r.tdt, true) != nil {
		e.proc.NIC().BadReq.Inc()
		r.reply.Payload = nil
	}
	if e.recording() {
		e.recordAccess(r.m, Access{
			Handle: r.handle, Disp: r.disp, Len: ext,
			Kind: AccessGet, Atomic: r.atomic, Ordered: r.ordered, Member: -1, At: end,
		})
	}
	r.fin(end)
}

// sendValue ends a get or RMW: the reply — whatever the apply prepared, or
// an empty one when it never ran — carries the delivery counter itself, so
// the operation is counted without an ack or a notification of its own.
func (r *applyOp) sendValue(kind uint8, end vtime.Time) {
	e := r.e
	count := e.finishApply(r, r.attrs&^(AttrRemoteComplete|AttrNotify), end)
	reply := r.reply
	if reply == nil {
		reply = e.newMsg(r.m.Src, kind, 0)
	}
	reply.Hdr[hReq] = r.m.Hdr[hReq]
	reply.Hdr[hCount] = uint64(count)
	e.sendReply(end, reply)
}

// handleGetReply completes a pending get at the origin, then folds the
// reply's delivery counter: a Complete the counter releases finds the get
// done. The reply lands through the same RemoteUnpack a put deposit uses,
// so the holes of the origin layout are never written; a failure is reported
// through the request (Err), not a panic on the delivery goroutine. The
// landed reply goes back to the target that sent it.
func (e *Engine) handleGetReply(m *simnet.Message, at vtime.Time) {
	e.emit(trace.KindReply, at, m.Src, m.Hdr[hReq], int64(m.Hdr[hCount]), int64(len(m.Payload)))
	if req := e.claim(m.Hdr[hReq]); req != nil {
		req.finish(at, e.landReply(req.land, m.Payload))
	}
	e.noteConfirmed(m.Src, int64(m.Hdr[hCount]), at)
	e.consume(m)
}

// landReply unpacks a get reply's payload into the request's landing.
func (e *Engine) landReply(land landing, payload []byte) error {
	if land.dt == nil {
		return nil
	}
	if len(payload) == 0 {
		// The target could not serve the get (unexposed or out-of-range
		// memory); fail the request instead of leaving stale data.
		return fmt.Errorf("core: get failed at the target: %w", ErrBadHandle)
	}
	if err := e.proc.Mem().RemoteUnpack(land.region.Offset, payload, land.count, land.dt, e.proc.ByteOrder()); err != nil {
		e.proc.NIC().BadReq.Inc()
		return fmt.Errorf("core: get landing: %w", err)
	}
	return nil
}

// handleAck completes a remote-completion request at the origin, then
// folds the ack's delivery counter (see handleGetReply for the order).
func (e *Engine) handleAck(m *simnet.Message, at vtime.Time) {
	e.emit(trace.KindAck, at, m.Src, m.Hdr[hReq], int64(m.Hdr[hCount]), 0)
	e.settle(m.Hdr[hReq], at, nil)
	e.noteConfirmed(m.Src, int64(m.Hdr[hCount]), at)
	e.consume(m)
}

// handleProbe answers a completion probe — the origin asks "have you
// applied my first N operations yet?" — at its arrival, or parks it on the
// origin's delivery watermark, by value, whose raise to N answers it (no
// earlier than the arrival either; see probe).
func (e *Engine) handleProbe(m *simnet.Message, at vtime.Time) {
	e.Probes.Inc()
	threshold := int64(m.Hdr[hHandle])
	origin, reqID := m.Src, m.Hdr[hReq]
	e.consume(m)
	e.emit(trace.KindProbe, at, origin, reqID, threshold, 0)
	e.mu.Lock()
	wm := &e.applied[origin]
	count := wm.count
	if count < threshold {
		wm.probes = append(wm.probes, probe{threshold: threshold, origin: origin, reqID: reqID, arrival: at})
	}
	e.mu.Unlock()
	if count >= threshold {
		e.sendProbeAck(origin, reqID, count, at)
	}
}

// handleProbeAck completes a Complete/Order stall at the origin.
func (e *Engine) handleProbeAck(m *simnet.Message, at vtime.Time) {
	target, id, count := m.Src, m.Hdr[hReq], int64(m.Hdr[hCount])
	e.consume(m)
	e.noteConfirmed(target, count, at)
	e.emit(trace.KindProbeAck, at, target, id, count, 0)
	e.settle(id, at, nil)
}
