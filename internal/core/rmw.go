package core

import (
	"encoding/binary"
	"fmt"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// Read-modify-write operations (paper Section V: "Two kinds of
// read-modify-write operations, one for conditional RMW and other for
// unconditional RMW are being considered"). FetchAdd is the unconditional
// form, CompareSwap the conditional one. Both operate on a single int64 at
// a byte displacement in the target memory, are always atomic (routed
// through the target's serializer mechanism regardless of AttrAtomic), and
// complete when the old value returns to the origin.

// FetchAdd atomically adds delta to the int64 at tm+tdisp and returns the
// previous value. Always blocking: RMW semantics require the old value.
func (e *Engine) FetchAdd(tm TargetMem, tdisp int, delta int64, trank int, comm *runtime.Comm, attrs Attr) (int64, error) {
	var operand [8]byte
	binary.LittleEndian.PutUint64(operand[:], uint64(delta))
	return e.rmw(rmwFetchAdd, tm, tdisp, operand[:], trank, comm, attrs)
}

// CompareSwap atomically compares the int64 at tm+tdisp with compare and,
// if equal, stores swap. It returns the previous value (the swap succeeded
// iff the return value equals compare).
func (e *Engine) CompareSwap(tm TargetMem, tdisp int, compare, swap int64, trank int, comm *runtime.Comm, attrs Attr) (int64, error) {
	var operand [16]byte
	binary.LittleEndian.PutUint64(operand[0:], uint64(compare))
	binary.LittleEndian.PutUint64(operand[8:], uint64(swap))
	return e.rmw(rmwCompSwap, tm, tdisp, operand[:], trank, comm, attrs)
}

// FetchWord atomically reads the int64 at tm+tdisp — the degenerate RMW
// that modifies nothing. It shares the serializer path with FetchAdd and
// CompareSwap (the read cannot observe a torn concurrent update) but,
// because the target memory is untouched, it skips replication and is the
// cheap primitive for polling remote lock words and sequence numbers.
func (e *Engine) FetchWord(tm TargetMem, tdisp int, trank int, comm *runtime.Comm, attrs Attr) (int64, error) {
	return e.rmw(rmwFetch, tm, tdisp, nil, trank, comm, attrs)
}

func (e *Engine) rmw(subop int, tm TargetMem, tdisp int, operand []byte, trank int, comm *runtime.Comm, attrs Attr) (int64, error) {
	if err := e.checkOwner(tm, trank, comm); err != nil {
		return 0, err
	}
	if tdisp < 0 || tdisp > tm.Size-8 {
		return 0, fmt.Errorf("core: RMW of 8 bytes at %d exceeds target_mem of %d bytes: %w", tdisp, tm.Size, ErrBounds)
	}
	m := e.newMsg(tm.Owner, kRMW, len(operand))
	m.Hdr[hHandle] = tm.Handle
	m.Hdr[hDisp] = uint64(tdisp)
	m.Hdr[hMeta] = uint64(subop) << 24
	copy(m.Payload, operand)
	// Always atomic; the old-value reply completes the request and carries
	// the delivery counter.
	req, err := e.issue(tm.Owner, e.effectiveAttrs(comm, attrs)|AttrAtomic, latRMW, m, landing{}, nil)
	if err == nil {
		var old int64
		if old, err = e.await(req); err == nil {
			return old, nil
		}
	}
	return 0, fmt.Errorf("core: RMW: %w", err)
}

// errRMWTarget fails an RMW whose reply carries no old value.
var errRMWTarget = fmt.Errorf("failed at the target (unexposed or out-of-range memory): %w", ErrBadHandle)

// startRMW validates the access and schedules it on the serializer. An
// invalid one is scheduled all the same, so it is counted in its turn.
func (r *applyOp) startRMW(at vtime.Time) {
	r.exp = r.e.lookupExposure(r.handle)
	operand := len(r.m.Payload)
	r.ok = r.exp != nil && r.exp.region.Contains(r.disp, 8) &&
		(r.subop == rmwFetchAdd && operand == 8 ||
			r.subop == rmwCompSwap && operand == 16 ||
			r.subop == rmwFetch && operand == 0)
	r.e.scheduleApply(r, at, 8)
}

// applyRMW updates the word under the memory lock, the old value landing
// in the reply fin will send: a reply without one tells the origin that the
// access failed.
func (r *applyOp) applyRMW(end vtime.Time) {
	e, operand := r.e, r.m.Payload
	if r.ok {
		order, subop := e.proc.ByteOrder(), r.subop
		reply := e.newMsg(r.m.Src, kRMWReply, 8)
		err := e.proc.Mem().Update(r.exp.region.Offset+r.disp, 8, func(cur []byte) {
			prev := loadElem(cur, 8, order)
			binary.LittleEndian.PutUint64(reply.Payload, prev)
			switch subop {
			case rmwFetchAdd:
				storeElem(cur, 8, order, prev+binary.LittleEndian.Uint64(operand))
			case rmwCompSwap:
				if prev == binary.LittleEndian.Uint64(operand[0:]) {
					storeElem(cur, 8, order, binary.LittleEndian.Uint64(operand[8:]))
				}
			}
		})
		if err == nil {
			r.reply = reply
		}
	}
	if r.reply == nil {
		e.proc.NIC().BadReq.Inc()
	}
	if r.exp != nil && e.recording() {
		e.recordAccess(r.m, Access{
			Handle: r.handle, Disp: r.disp, Len: 8,
			Kind: AccessRMW, Atomic: true, Ordered: r.ordered, Member: -1, At: end,
		})
	}
	if r.reply != nil && r.subop != rmwFetch {
		// The old-value reply must not outrun the replica: an RMW whose
		// origin saw the old value is durable at the buddy (pass-through
		// when unreplicated). A fetch mutated nothing.
		e.replicate(r, r.disp, 8, end)
	} else {
		r.fin(end)
	}
}

// handleRMWReply completes a pending RMW at the origin with a copy of the
// old value, then folds the reply's delivery counter (see handleGetReply).
func (e *Engine) handleRMWReply(m *simnet.Message, at vtime.Time) {
	if req := e.claim(m.Hdr[hReq]); req != nil {
		err := errRMWTarget
		if len(m.Payload) == 8 {
			req.old, err = int64(binary.LittleEndian.Uint64(m.Payload)), nil
		}
		req.finish(at, err)
	}
	e.noteConfirmed(m.Src, int64(m.Hdr[hCount]), at)
	e.consume(m)
}
