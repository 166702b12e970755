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
// lock as soon as the update is applied — a single origin→target message
// instead of a separate release, which also keeps the release correctly
// ordered after the update on unordered networks.

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
// NIC's delivery token, so they drive the state machine one at a time.
func (e *Engine) handleLockReq(m *simnet.Message, at vtime.Time) {
	reqID := m.Hdr[hReq]
	e.lock.Acquire(m.Src, at, func(origin int, grantAt vtime.Time) {
		g := e.newMsg(origin, kLockGrant, 0)
		g.Hdr[hReq] = reqID
		e.sendReply(grantAt, g)
	})
}

// handleLockGrant completes the origin's pending acquire.
func (e *Engine) handleLockGrant(m *simnet.Message, at vtime.Time) {
	e.settle(m.Hdr[hReq], at, nil)
}

// handleLockRel processes an explicit release message.
func (e *Engine) handleLockRel(m *simnet.Message, at vtime.Time) {
	if err := e.lock.Release(m.Src, at); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
}

// releaseLockLocal releases the lock at the end of an unlock-after
// operation. With the coarse-lock mechanism the apply runs inline in its
// handler, under the delivery token, so driving the state machine here is
// safe.
func (e *Engine) releaseLockLocal(origin int, at vtime.Time) {
	if err := e.lock.Release(origin, at); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
}

// LockStats exposes the coarse-lock grant counters (total grants, grants
// that had to queue), for the benchmark harness.
func (e *Engine) LockStats() (grants, contended int64) {
	return e.lock.Grants.Value(), e.lock.Contended.Value()
}
