package mpi2rma

import (
	"fmt"

	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

// Fence closes the previous fence epoch (completing all RMA issued from
// and into this rank's window) and opens a new one — Figure 1a. It is
// collective over the window's communicator: every operation issued by any
// member before its Fence is applied everywhere before any member's Fence
// returns.
func (w *Win) Fence() error {
	w.mu.Lock()
	if w.freed {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Fence on freed window: %w", rma.ErrBadHandle)
	}
	if w.epoch.accessGroup != nil || w.epoch.postGroup != nil || len(w.epoch.locked) > 0 {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Fence while a PSCW or lock epoch is open: %w", rma.ErrEpoch)
	}
	w.mu.Unlock()
	// Complete all of this rank's outstanding accesses, then barrier so
	// every member's accesses are complete before anyone proceeds.
	if err := w.s.CompleteCollective(); err != nil {
		return err
	}
	w.rma.Fences.Inc()
	w.mu.Lock()
	w.epoch.fenceOpen = true
	w.mu.Unlock()
	return nil
}

// Post opens an exposure epoch for the origins in group (comm ranks) —
// the target half of Figure 1b. It does not block.
func (w *Win) Post(group []int) error {
	w.mu.Lock()
	if w.epoch.postGroup != nil {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Post while an exposure epoch is already open: %w", rma.ErrEpoch)
	}
	pg := make(map[int]bool, len(group))
	for _, g := range group {
		pg[g] = true
	}
	w.epoch.postGroup = pg
	w.donesSeen = make(map[int]bool)
	w.mu.Unlock()
	for _, origin := range group {
		w.sendCtl(kPost, origin, 0, 0)
	}
	return nil
}

// Start opens an access epoch toward the targets in group (comm ranks) —
// the origin half of Figure 1b. It blocks until every target has posted.
func (w *Win) Start(group []int) error {
	w.mu.Lock()
	if w.epoch.accessGroup != nil {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Start while an access epoch is already open: %w", rma.ErrEpoch)
	}
	ag := make(map[int]bool, len(group))
	for _, g := range group {
		ag[g] = true
	}
	w.epoch.accessGroup = ag
	for {
		seen := w.notice.Rings()
		all := true
		for _, g := range group {
			if !w.postsSeen[g] {
				all = false
				break
			}
		}
		if all {
			break
		}
		w.mu.Unlock()
		w.rma.proc.Park(w.notice, seen)
		w.mu.Lock()
	}
	for _, g := range group {
		delete(w.postsSeen, g)
	}
	at := w.noticeAt
	w.mu.Unlock()
	w.rma.PSCWEpochs.Inc()
	w.rma.proc.NIC().CPU().AdvanceTo(at)
	return nil
}

// Complete closes the access epoch: all RMA to the group is applied at the
// targets, then each target is notified so its Wait can return.
func (w *Win) Complete() error {
	w.mu.Lock()
	group := w.epoch.accessGroup
	if group == nil {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Complete without a matching Start: %w", rma.ErrEpoch)
	}
	w.epoch.accessGroup = nil
	w.mu.Unlock()
	for g := range group {
		if err := w.s.Complete(g); err != nil {
			return err
		}
		w.sendCtl(kDone, g, 0, 0)
	}
	return nil
}

// Wait closes the exposure epoch: it blocks until every origin in the
// posted group has called Complete (whose probe exchange already
// guarantees their operations are applied here).
func (w *Win) Wait() error {
	w.mu.Lock()
	group := w.epoch.postGroup
	if group == nil {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Wait without a matching Post: %w", rma.ErrEpoch)
	}
	for {
		seen := w.notice.Rings()
		all := true
		for g := range group {
			if !w.donesSeen[g] {
				all = false
				break
			}
		}
		if all {
			break
		}
		w.mu.Unlock()
		w.rma.proc.Park(w.notice, seen)
		w.mu.Lock()
	}
	w.epoch.postGroup = nil
	w.donesSeen = make(map[int]bool)
	at := w.noticeAt
	w.mu.Unlock()
	w.rma.proc.NIC().CPU().AdvanceTo(at)
	return nil
}

// Test is the nonblocking Wait: it reports whether the exposure epoch
// could be closed, closing it if so.
func (w *Win) Test() (bool, error) {
	w.mu.Lock()
	group := w.epoch.postGroup
	if group == nil {
		w.mu.Unlock()
		return false, fmt.Errorf("mpi2rma: Test without a matching Post: %w", rma.ErrEpoch)
	}
	for g := range group {
		if !w.donesSeen[g] {
			w.mu.Unlock()
			return false, nil
		}
	}
	w.epoch.postGroup = nil
	w.donesSeen = make(map[int]bool)
	at := w.noticeAt
	w.mu.Unlock()
	w.rma.proc.NIC().CPU().AdvanceTo(at)
	return true, nil
}

// handlePost records a target's exposure-epoch notice.
func (r *RMA) handlePost(m *simnet.Message, at vtime.Time) {
	w := r.lookup(m.Hdr[hWin])
	if w == nil {
		r.proc.NIC().BadReq.Inc()
		return
	}
	src := w.commRankOfWorld(m.Src)
	w.mu.Lock()
	w.postsSeen[src] = true
	w.noticeAt = vtime.Later(w.noticeAt, at)
	w.mu.Unlock()
	w.notice.Ring()
}

// handleDone records an origin's access-epoch-closed notice.
func (r *RMA) handleDone(m *simnet.Message, at vtime.Time) {
	w := r.lookup(m.Hdr[hWin])
	if w == nil {
		r.proc.NIC().BadReq.Inc()
		return
	}
	src := w.commRankOfWorld(m.Src)
	w.mu.Lock()
	w.donesSeen[src] = true
	w.noticeAt = vtime.Later(w.noticeAt, at)
	w.mu.Unlock()
	w.notice.Ring()
}
