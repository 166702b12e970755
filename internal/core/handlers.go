package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// gateOrdered runs process immediately for unordered operations (seq 0)
// and otherwise enforces the per-origin ordered stream: out-of-order
// arrivals are buffered until every predecessor has been processed — the
// "counter for messages" software support the paper prescribes for
// networks that do not order messages themselves.
func (e *Engine) gateOrdered(src int, seq uint64, at vtime.Time, process func(at vtime.Time)) {
	if seq == 0 {
		process(at)
		return
	}
	e.tgtMu.Lock()
	rb := e.reorder[src]
	if rb == nil {
		rb = &reorderBuf{held: make(map[uint64]func(at vtime.Time)), heldAt: make(map[uint64]vtime.Time)}
		e.reorder[src] = rb
	}
	if seq != rb.expected+1 {
		rb.held[seq] = process
		rb.heldAt[seq] = at
		e.tgtMu.Unlock()
		e.HeldOps.Inc()
		return
	}
	// This op is next; it may release a run of held successors.
	type run struct {
		at vtime.Time
		fn func(at vtime.Time)
	}
	ready := []run{{at, process}}
	rb.expected = seq
	for {
		fn, ok := rb.held[rb.expected+1]
		if !ok {
			break
		}
		rb.expected++
		ready = append(ready, run{rb.heldAt[rb.expected], fn})
		delete(rb.held, rb.expected)
		delete(rb.heldAt, rb.expected)
	}
	e.tgtMu.Unlock()
	// A held op cannot be processed before the op that released it.
	chain := vtime.Time(0)
	for _, r := range ready {
		chain = vtime.Later(chain, r.at)
		r.fn(chain)
	}
}

// scheduleApply routes a target memory update through the appropriate
// serialization path and virtual-time lane.
//
//   - Non-atomic updates run inline on per-origin lanes: concurrent
//     origins' deposits overlap in modelled time, as independent DMA
//     streams would.
//   - Atomic updates serialize on the mechanism configured at this target:
//     the communication-thread queue, the progress queue, or (under the
//     coarse lock, which the origin already holds) the single atomic lane.
func (e *Engine) scheduleApply(src int, at vtime.Time, nbytes int, atomic bool, fn func(end vtime.Time)) {
	if e.shardPool != nil {
		// Sharding is on but this update is not pool-eligible (atomic, or a
		// caller without range information); counted so shard telemetry
		// reconciles against ops.applied.
		e.ShardBypass.Inc()
	}
	cost := e.applyCost(nbytes)
	if !atomic {
		e.tgtMu.Lock()
		lane := e.laneForLocked(src)
		e.tgtMu.Unlock()
		_, end := lane.Reserve(at, cost)
		fn(end)
		return
	}
	switch e.opts.Atomicity {
	case serializer.MechThread:
		e.applyQ.Submit(serializer.Task{Ready: at, Cost: cost, Fn: fn})
	case serializer.MechProgress:
		e.progQ.Submit(serializer.Task{Ready: at, Cost: cost, Fn: fn})
	case serializer.MechCoarseLock:
		_, end := e.atomicLane.Reserve(at, cost)
		fn(end)
	default:
		_, end := e.atomicLane.Reserve(at, cost)
		fn(end)
	}
}

// finishApply performs the bookkeeping shared by every applied operation:
// probe accounting, acknowledgement or notification, coarse-lock release.
// It returns the cumulative applied count so reply-bearing handlers (get,
// RMW) can piggyback the delivery counter on their replies. cost is the
// modelled apply duration the caller scheduled — the apply event's B, so
// the critical-path analyzer can split target-side time into
// queueing vs applying (error-path callers that never scheduled an apply
// pass 0).
func (e *Engine) finishApply(m *simnet.Message, attrs Attr, atomic bool, end vtime.Time, cost time.Duration) int64 {
	count := e.noteApplied(m.Src, end)
	if attrs&AttrRemoteComplete != 0 {
		ack := newMsg(m.Src, kAck)
		ack.Hdr[hReq] = m.Hdr[hReq]
		ack.Hdr[hCount] = uint64(count)
		if !atomic && e.proc.NIC().HardwareAcks() {
			// The NIC observed the deposit and acknowledges in hardware.
			e.sendReplyNIC(end, ack)
		} else {
			// Software acknowledgement: atomic updates are applied by
			// software, and some networks simply cannot report remote
			// completion (E4) — either way the echo is CPU-injected.
			e.sendReply(end, ack)
		}
		e.AcksSent.Inc()
	} else if attrs&AttrNotify != 0 {
		// A notified operation without remote completion still reports its
		// delivery counter (the ack above already carries it).
		e.sendNotify(m.Src, 0, count, end, atomic)
	}
	if m.Flags&flagUnlockAfter != 0 {
		e.releaseLockLocal(m.Src, end)
	}
	e.emit(trace.KindApply, end, m.Src, m.Hdr[hReq], int64(len(m.Payload)), int64(cost))
	return count
}

// handlePut processes an incoming put or accumulate.
func (e *Engine) handlePut(m *simnet.Message, at vtime.Time) {
	attrs := Attr(m.Hdr[hMeta] & 0xffff)
	op := wireOp{
		handle:  m.Hdr[hHandle],
		disp:    int(m.Hdr[hDisp]),
		tcount:  int(m.Hdr[hCount]),
		accOp:   AccOp(m.Hdr[hMeta] >> 16 & 0xff),
		atomic:  attrs&AttrAtomic != 0,
		ordered: attrs&AttrOrdering != 0,
		scale:   1,
	}
	e.gateOrdered(m.Src, m.Hdr[hSeq], at, func(at vtime.Time) {
		exp := e.lookupExposure(op.handle)
		var err error
		op.tdt, op.wire, err = parseTypeFrame(m.Payload)
		if err == nil && op.accOp == AccAxpy {
			if len(op.wire) < 8 {
				err = fmt.Errorf("core: truncated axpy scale")
			} else {
				op.scale = math.Float64frombits(binary.LittleEndian.Uint64(op.wire))
				op.wire = op.wire[8:]
			}
		}
		if err != nil || exp == nil {
			// Count the op so completion probes do not deadlock, but the
			// deposit is lost (malformed body or access to unexposed memory).
			e.proc.NIC().BadReq.Inc()
			e.finishApply(m, attrs, op.atomic, at, 0)
			return
		}
		cost := e.applyCost(len(op.wire))
		e.scheduleApplyRange(m.Src, at, len(op.wire), op.atomic, op.ordered, exp, op.disp, datatype.ExtentOf(op.tcount, op.tdt), func(end vtime.Time) {
			e.applyDeposit(m, &op, exp, -1, end, func(end vtime.Time) {
				e.finishApply(m, attrs, op.atomic, end, cost)
			})
		})
	})
}

// handleGet processes an incoming get: gather the requested layout and
// reply with canonical wire data.
func (e *Engine) handleGet(m *simnet.Message, at vtime.Time) {
	attrs := Attr(m.Hdr[hMeta] & 0xffff)
	atomic := attrs&AttrAtomic != 0
	e.gateOrdered(m.Src, m.Hdr[hSeq], at, func(at vtime.Time) {
		exp := e.lookupExposure(m.Hdr[hHandle])
		tdt, _, err := parseTypeFrame(m.Payload)
		if err != nil || exp == nil {
			e.proc.NIC().BadReq.Inc()
			// Reply with an empty payload so the origin's request errors
			// out rather than hanging.
			reply := newMsg(m.Src, kGetReply)
			reply.Hdr[hReq] = m.Hdr[hReq]
			e.sendReply(at, reply)
			e.finishApply(m, attrs&^AttrRemoteComplete, atomic, at, 0)
			return
		}
		tcount := int(m.Hdr[hCount])
		disp := int(m.Hdr[hDisp])
		nbytes := tcount * tdt.Size()
		e.scheduleApplyRange(m.Src, at, nbytes, atomic, attrs&AttrOrdering != 0, exp, disp, datatype.ExtentOf(tcount, tdt), func(end vtime.Time) {
			wire, err := e.gather(exp.region.Offset+disp, tcount, tdt)
			if err != nil {
				e.proc.NIC().BadReq.Inc()
				wire = nil
			}
			e.recordAccess(m, Access{
				Handle: m.Hdr[hHandle], Disp: disp, Len: datatype.ExtentOf(tcount, tdt),
				Kind: AccessGet, Atomic: atomic, Ordered: attrs&AttrOrdering != 0, Member: -1, At: end,
			})
			count := e.finishApply(m, attrs&^(AttrRemoteComplete|AttrNotify), atomic, end, e.applyCost(nbytes))
			reply := newMsg(m.Src, kGetReply)
			reply.Hdr[hReq] = m.Hdr[hReq]
			reply.Hdr[hCount] = uint64(count)
			reply.Payload = wire
			e.sendReply(end, reply)
		})
	})
}

// handleGetReply completes a pending get at the origin.
func (e *Engine) handleGetReply(m *simnet.Message, at vtime.Time) {
	e.noteConfirmed(m.Src, int64(m.Hdr[hCount]), at)
	e.emit(trace.KindReply, at, m.Src, m.Hdr[hReq], int64(m.Hdr[hCount]), int64(len(m.Payload)))
	req := e.lookupRequest(m.Hdr[hReq])
	if req == nil {
		return
	}
	if req.onData != nil {
		if len(m.Payload) == 0 {
			// The target could not serve the get (unexposed or out-of-range
			// memory); fail the request instead of leaving stale data.
			req.completeErr(at, fmt.Errorf("core: get failed at the target: %w", ErrBadHandle))
			return
		}
		if err := req.onData(m.Payload, at); err != nil {
			e.proc.NIC().BadReq.Inc()
			req.completeErr(at, err)
			return
		}
	}
	req.complete(at, nil)
}

// handleAck completes a remote-completion request at the origin.
func (e *Engine) handleAck(m *simnet.Message, at vtime.Time) {
	e.noteConfirmed(m.Src, int64(m.Hdr[hCount]), at)
	e.emit(trace.KindAck, at, m.Src, m.Hdr[hReq], int64(m.Hdr[hCount]), 0)
	if req := e.lookupRequest(m.Hdr[hReq]); req != nil {
		req.complete(at, nil)
	}
}

// handleProbe answers a completion probe — the origin asks "have you
// applied my first N operations yet?" — or parks it on the origin's
// delivery watermark, whose raise to N answers it.
func (e *Engine) handleProbe(m *simnet.Message, at vtime.Time) {
	e.Probes.Inc()
	threshold := int64(m.Hdr[hHandle])
	origin, reqID := m.Src, m.Hdr[hReq]
	e.emit(trace.KindProbe, at, origin, reqID, threshold, 0)
	e.tgtMu.Lock()
	wm := &e.applied[origin]
	count := wm.count
	if count < threshold {
		wm.waiters = append(wm.waiters, &waiter{threshold: threshold, probe: true, wake: func(count int64, at vtime.Time) {
			if count >= threshold { // else a failure's poke: nothing to answer yet
				e.sendProbeAck(origin, reqID, count, at)
			}
		}})
	}
	e.tgtMu.Unlock()
	if count >= threshold {
		e.sendProbeAck(origin, reqID, count, at)
	}
}

// handleProbeAck completes a Complete/Order stall at the origin.
func (e *Engine) handleProbeAck(m *simnet.Message, at vtime.Time) {
	e.noteConfirmed(m.Src, int64(m.Hdr[hCount]), at)
	e.emit(trace.KindProbeAck, at, m.Src, m.Hdr[hReq], int64(m.Hdr[hCount]), 0)
	if req := e.lookupRequest(m.Hdr[hReq]); req != nil {
		req.complete(at, nil)
	}
}
