package core

import (
	"fmt"

	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// Coarse-grain serializer protocol (Figure 2's expensive case, and the
// only option on systems like Catamount that forbid extra threads and lack
// active messages): before an atomic operation, the origin acquires the
// target's MPI-process-level lock with a request/grant round trip; the
// operation message carries flagUnlockAfter so the target releases the
// lock as soon as the update is applied. The operation is the release:
// there is no release message of its own, which keeps the release ordered
// after the update on unordered networks — and a separate one could not
// help an issue whose send failed after the grant, as that send's link is
// down. A holder or waiter that dies is evicted once its death is
// confirmed (evictFromLock).

// acquireLock blocks until the target's process-level lock is granted to
// this rank.
func (e *Engine) acquireLock(world int) error {
	if err := e.stickyFor(world); err != nil {
		return fmt.Errorf("core: lock of rank %d: %w", world, err)
	}
	req, err := e.ask(world, kLockReq, 0)
	if err != nil {
		return err
	}
	if _, err := e.await(req); err != nil {
		return fmt.Errorf("core: lock of rank %d: %w", world, err)
	}
	return nil
}

// handleLockReq queues or grants the process-level lock. Handlers hold the
// NIC's delivery token, so they drive the state machine one at a time. The
// request's frame goes home before the grant is sent. A request this rank
// sent itself carries a death or a holder's release instead (lockByToken).
func (e *Engine) handleLockReq(m *simnet.Message, at vtime.Time) {
	origin, reqID, flags, peer := m.Src, m.Hdr[hReq], m.Flags, int(m.Hdr[hHandle])
	e.consume(m)
	if flags&flagEvict != 0 {
		e.lock.Evict(peer, at)
	} else if flags&flagUnlockAfter != 0 {
		e.releaseLockLocal(peer, at)
	} else {
		e.lock.AcquireTagged(origin, reqID, at, e.grantLock)
	}
}

// sendGrant grants the lock to origin's request reqID at virtual time at.
func (e *Engine) sendGrant(origin int, reqID uint64, at vtime.Time) {
	g := e.newMsg(origin, kLockGrant, 0)
	g.Hdr[hReq] = reqID
	e.sendReply(at, g)
}

// handleLockGrant completes the origin's pending acquire.
func (e *Engine) handleLockGrant(m *simnet.Message, at vtime.Time) {
	id := m.Hdr[hReq]
	e.consume(m)
	e.settle(id, at, nil)
}

// evictFromLock frees this rank's coarse lock of a rank confirmed dead:
// the lock it holds — granted, with its unlock-after operation lost with
// it — and its queued requests.
func (e *Engine) evictFromLock(dead int, at vtime.Time) {
	if e.targetUsesCoarseLock() && dead != e.proc.Rank() {
		e.lockByToken(flagEvict, dead, at)
	}
}

// lockByToken sends the coarse lock, driven only under the delivery token,
// peer's death (flagEvict) or the release of peer's hold (flagUnlockAfter,
// from a failure's flush) as a lock request this rank sends itself.
func (e *Engine) lockByToken(flag uint8, peer int, at vtime.Time) {
	m := e.newMsg(e.proc.Rank(), kLockReq, 0)
	m.Flags = flag
	m.Hdr[hHandle] = uint64(peer)
	e.sendReplyNIC(at, m)
}

// releaseLockLocal releases origin's hold under the delivery token: in the
// handler that applied an unlock-after operation, or for lockByToken.
func (e *Engine) releaseLockLocal(origin int, at vtime.Time) {
	e.proc.NIC().AssertToken("the coarse lock")
	if err := e.lock.Release(origin, at); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
}

// LockStats exposes the coarse-lock grant counters (total grants, grants
// that had to queue), for the benchmark harness.
func (e *Engine) LockStats() (grants, contended int64) {
	return e.lock.Grants.Value(), e.lock.Contended.Value()
}
