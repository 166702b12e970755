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
	if tdisp < 0 || tdisp+8 > tm.Size {
		return 0, fmt.Errorf("core: RMW at [%d,%d) exceeds target_mem of %d bytes: %w", tdisp, tdisp+8, tm.Size, ErrBounds)
	}
	m := newMsg(tm.Owner, kRMW)
	m.Hdr[hHandle] = tm.Handle
	m.Hdr[hDisp] = uint64(tdisp)
	m.Hdr[hMeta] = uint64(subop) << 24
	m.Payload = operand
	// Always atomic; the old-value reply completes the request and carries
	// the delivery counter.
	req, err := e.issueSingleton(comm, m, e.effectiveAttrs(comm, attrs)|AttrAtomic, true, latRMW, nil)
	if err != nil {
		return 0, fmt.Errorf("core: RMW: %w", err)
	}
	req.Wait()
	if err := req.Err(); err != nil {
		return 0, fmt.Errorf("core: RMW: %w", err)
	}
	val := req.Value()
	if len(val) != 8 {
		return 0, fmt.Errorf("core: RMW failed at the target (unexposed or out-of-range memory): %w", ErrBadHandle)
	}
	return int64(binary.LittleEndian.Uint64(val)), nil
}

// handleRMW applies a fetch-add or compare-and-swap at the target and
// replies with the old value.
func (e *Engine) handleRMW(m *simnet.Message, at vtime.Time) {
	attrs := Attr(m.Hdr[hMeta] & 0xffff)
	subop := int(m.Hdr[hMeta] >> 24 & 0xff)
	e.gateOrdered(m.Src, m.Hdr[hSeq], at, func(at vtime.Time) {
		exp := e.lookupExposure(m.Hdr[hHandle])
		disp := int(m.Hdr[hDisp])
		bad := exp == nil || !exp.region.Contains(disp, 8) ||
			(subop == rmwFetchAdd && len(m.Payload) != 8) ||
			(subop == rmwCompSwap && len(m.Payload) != 16) ||
			(subop == rmwFetch && len(m.Payload) != 0)
		e.scheduleApply(m.Src, at, 8, true, func(end vtime.Time) {
			var old [8]byte
			ok := !bad
			if ok {
				order := e.proc.ByteOrder()
				err := e.proc.Mem().Update(exp.region.Offset+disp, 8, func(cur []byte) {
					prev := loadElem(cur, 8, order)
					binary.LittleEndian.PutUint64(old[:], prev)
					switch subop {
					case rmwFetchAdd:
						delta := binary.LittleEndian.Uint64(m.Payload)
						storeElem(cur, 8, order, prev+delta)
					case rmwCompSwap:
						compare := binary.LittleEndian.Uint64(m.Payload[0:])
						swap := binary.LittleEndian.Uint64(m.Payload[8:])
						if prev == compare {
							storeElem(cur, 8, order, swap)
						}
					case rmwFetch:
						// Pure read: the old value is the whole result.
					default:
						ok = false
					}
				})
				if err != nil {
					ok = false
				}
			}
			if exp != nil {
				e.recordAccess(m, Access{
					Handle: m.Hdr[hHandle], Disp: disp, Len: 8,
					Kind: AccessRMW, Atomic: true, Ordered: attrs&AttrOrdering != 0, Member: -1, At: end,
				})
			}
			mutated := ok && subop != rmwFetch
			fin := func(end vtime.Time) {
				count := e.finishApply(m, attrs&^(AttrRemoteComplete|AttrNotify), true, end, e.applyCost(8))
				reply := newMsg(m.Src, kRMWReply)
				reply.Hdr[hReq] = m.Hdr[hReq]
				reply.Hdr[hCount] = uint64(count)
				if ok {
					reply.Payload = append([]byte(nil), old[:]...)
				} else {
					e.proc.NIC().BadReq.Inc()
				}
				e.sendReply(end, reply)
			}
			if mutated {
				// The old-value reply must not outrun the replica: an RMW
				// whose origin saw the old value is durable at the buddy
				// (pass-through when unreplicated).
				e.replicate(m.Hdr[hHandle], exp, disp, 8, end, fin)
			} else {
				fin(end)
			}
		})
	})
}

// handleRMWReply completes a pending RMW at the origin with the old value.
func (e *Engine) handleRMWReply(m *simnet.Message, at vtime.Time) {
	e.noteConfirmed(m.Src, int64(m.Hdr[hCount]), at)
	if req := e.lookupRequest(m.Hdr[hReq]); req != nil {
		req.complete(at, m.Payload)
	}
}
