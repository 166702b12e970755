package mpi2rma

import (
	"fmt"
	"sync"

	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

// Passive-target synchronization (Figure 1c): MPI_Win_lock /
// MPI_Win_unlock. The lock lives at the target rank's window; shared locks
// admit concurrent holders, exclusive locks a single one, FIFO-fair across
// the mix. Unlock first completes the holder's RMA operations at the
// target (the strawman completion probe), then releases — matching MPI-2's
// rule that operations are complete at unlock.

// pendingLock tracks this origin's in-flight lock request.
type pendingLock struct {
	mu   sync.Mutex
	ch   chan struct{}
	at   vtime.Time
	done bool
}

// Lock opens a passive-target access epoch on trank's window memory.
func (w *Win) Lock(typ LockType, trank int) error {
	w.mu.Lock()
	if w.epoch.locked == nil {
		w.epoch.locked = make(map[int]bool)
	}
	if w.epoch.locked[trank] {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Lock(%d) while already holding a lock on that rank: %w", trank, rma.ErrEpoch)
	}
	w.mu.Unlock()

	pl := &pendingLock{ch: make(chan struct{})}
	reqID := w.rma.registerLockWait(pl)
	w.sendCtl(kWLockReq, trank, uint64(typ), reqID)
	<-pl.ch
	w.rma.proc.NIC().CPU().AdvanceTo(pl.at)

	w.mu.Lock()
	w.epoch.locked[trank] = true
	w.mu.Unlock()
	w.rma.WinLocks.Inc()
	return nil
}

// Unlock closes the passive-target epoch on trank: all RMA operations
// issued under the lock are applied at the target before the lock is
// released.
func (w *Win) Unlock(trank int) error {
	w.mu.Lock()
	if !w.epoch.locked[trank] {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Unlock(%d) without holding the lock: %w", trank, rma.ErrEpoch)
	}
	delete(w.epoch.locked, trank)
	w.mu.Unlock()
	if err := w.s.Complete(trank); err != nil {
		return err
	}
	w.sendCtl(kWLockRel, trank, 0, 0)
	return nil
}

// registerLockWait stashes a pending lock under a fresh request id.
func (r *RMA) registerLockWait(pl *pendingLock) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lockWaits == nil {
		r.lockWaits = make(map[uint64]*pendingLock)
	}
	r.lockReqSeq++
	r.lockWaits[r.lockReqSeq] = pl
	return r.lockReqSeq
}

// takeLockWait removes and returns a pending lock by id.
func (r *RMA) takeLockWait(id uint64) *pendingLock {
	r.mu.Lock()
	defer r.mu.Unlock()
	pl := r.lockWaits[id]
	delete(r.lockWaits, id)
	return pl
}

// grantable reports whether a request can be granted given current
// holders: shared joins shared; anything else requires the window free.
func (w *Win) grantable(typ LockType) bool {
	if len(w.lockHolders) == 0 {
		return true
	}
	if typ != LockShared {
		return false
	}
	for _, t := range w.lockHolders {
		if t != LockShared {
			return false
		}
	}
	return true
}

// grantLocked records the holder and sends the grant. Caller holds w.mu.
func (w *Win) grantLocked(origin int, typ LockType, reqID uint64, at vtime.Time) {
	w.lockHolders[origin] = typ
	grantAt := w.lockLane.AdvanceTo(at)
	w.mu.Unlock()
	w.sendCtlAt(kWLockGnt, origin, uint64(typ), reqID, grantAt)
	w.mu.Lock()
}

// sendCtlAt is sendCtl with an explicit virtual send time (grants are
// issued by a handler at the grant time, not the user clock). A failed
// send can only mean the world is shutting down; the grant is dropped
// rather than crashing the delivering goroutine.
func (w *Win) sendCtlAt(kind uint8, commDst int, arg uint64, reqID uint64, at vtime.Time) {
	p := w.rma.proc
	m := &simnet.Message{Dst: w.comm.WorldRank(commDst), Kind: kind}
	m.Hdr[hWin] = w.id
	m.Hdr[hArg] = arg
	m.Hdr[hReq] = reqID
	if _, err := p.NIC().Send(at, m); err != nil {
		p.NIC().BadReq.Inc()
	}
}

// handleLockReq grants or queues a window lock request. Runs under the
// NIC's delivery token, like every handler.
func (r *RMA) handleLockReq(m *simnet.Message, at vtime.Time) {
	w := r.lookup(m.Hdr[hWin])
	if w == nil {
		r.proc.NIC().BadReq.Inc()
		return
	}
	origin := w.commRankOfWorld(m.Src)
	typ := LockType(m.Hdr[hArg])
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.grantable(typ) && len(w.lockQueue) == 0 {
		w.grantLocked(origin, typ, m.Hdr[hReq], at)
		return
	}
	w.lockQueue = append(w.lockQueue, lockWaiter{origin: origin, typ: typ, reqID: m.Hdr[hReq], at: at})
}

// handleLockGrant completes the origin's pending Lock.
func (r *RMA) handleLockGrant(m *simnet.Message, at vtime.Time) {
	pl := r.takeLockWait(m.Hdr[hReq])
	if pl == nil {
		r.proc.NIC().BadReq.Inc()
		return
	}
	pl.mu.Lock()
	if !pl.done {
		pl.done = true
		pl.at = at
		close(pl.ch)
	}
	pl.mu.Unlock()
}

// handleLockRel releases a holder and grants as many queued requests as
// compatibility allows (a released exclusive may admit a run of shared
// waiters).
func (r *RMA) handleLockRel(m *simnet.Message, at vtime.Time) {
	w := r.lookup(m.Hdr[hWin])
	if w == nil {
		r.proc.NIC().BadReq.Inc()
		return
	}
	origin := w.commRankOfWorld(m.Src)
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, held := w.lockHolders[origin]; !held {
		r.proc.NIC().BadReq.Inc()
		return
	}
	delete(w.lockHolders, origin)
	w.lockLane.AdvanceTo(at)
	for len(w.lockQueue) > 0 {
		next := w.lockQueue[0]
		if !w.grantable(next.typ) {
			break
		}
		w.lockQueue = w.lockQueue[1:]
		w.grantLocked(next.origin, next.typ, next.reqID, vtime.Later(at, next.at))
	}
}
