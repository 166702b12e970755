// Package epochorder is the golden input for the epochorder analyzer.
package epochorder

import (
	"mpi3rma/internal/mpi2rma"
	"mpi3rma/internal/runtime"
)

func unlockWithoutLock(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	_ = w.Unlock(1) // want "Unlock on rank 1 without holding the lock"
}

func doubleLock(p *runtime.Proc, w *mpi2rma.Win) {
	_ = w.Lock(mpi2rma.LockExclusive, 1)
	_ = w.Lock(mpi2rma.LockShared, 1) // want "Lock on rank 1 while already holding a lock on that rank"
	_ = w.Unlock(1)
}

func lockUnlockIsFine(p *runtime.Proc, w *mpi2rma.Win) {
	_ = w.Lock(mpi2rma.LockExclusive, 1)
	_ = w.Unlock(1)
	_ = w.Lock(mpi2rma.LockShared, 1)
	_ = w.Unlock(1)
}

func distinctRanksAreFine(w *mpi2rma.Win) {
	_ = w.Lock(mpi2rma.LockShared, 0)
	_ = w.Lock(mpi2rma.LockShared, 1)
	_ = w.Unlock(0)
	_ = w.Unlock(1)
}

func completeWithoutStart(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	_ = w.Complete() // want "Complete without a matching Start"
}

func waitWithoutPost(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	_ = w.Wait() // want "Wait without a matching Post"
}

func pscwRoundTripIsFine(w *mpi2rma.Win) {
	_ = w.Start([]int{1})
	_ = w.Complete()
	_ = w.Post([]int{1})
	_ = w.Wait()
}

func doubleStart(w *mpi2rma.Win) {
	_ = w.Start([]int{1})
	_ = w.Start([]int{2}) // want "Start while an access epoch is already open"
}

func fenceInsideLockEpoch(w *mpi2rma.Win) {
	_ = w.Lock(mpi2rma.LockExclusive, 1)
	_ = w.Fence() // want "Fence while a PSCW or lock epoch is open"
}

func freeInsideEpoch(w *mpi2rma.Win) {
	_ = w.Post([]int{1})
	_ = w.Free() // want "Free inside an open epoch"
}

func useAfterFree(w *mpi2rma.Win) {
	_ = w.Free()
	_ = w.Fence() // want "Fence on a window after Free"
}

func accessOutsideEpoch(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	src := p.Alloc(8)
	_ = w.Put(src, 8, nil, 1, 0, 8, nil) // want "RMA Put outside any epoch"
}

func accessInsideFenceIsFine(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	src := p.Alloc(8)
	_ = w.Fence()
	_ = w.Put(src, 8, nil, 1, 0, 8, nil)
	_ = w.Fence()
}

// Unknown windows (parameters) start with unknown state: nothing on them
// is provable, so nothing is reported.
func unknownWindowIsFine(w *mpi2rma.Win) {
	_ = w.Complete()
	_ = w.Wait()
	_ = w.Unlock(3)
	_ = w.Fence()
}

// Branches are separate statement lists: a Lock in one arm never leaks
// into the other.
func branchesDoNotMerge(w *mpi2rma.Win, flip bool) {
	if flip {
		_ = w.Lock(mpi2rma.LockExclusive, 0)
		_ = w.Unlock(0)
	} else {
		_ = w.Lock(mpi2rma.LockShared, 0)
		_ = w.Unlock(0)
	}
}

// Non-constant ranks make the lock set unknowable; later constant locking
// must not be misreported.
func dynamicRank(w *mpi2rma.Win, r int) {
	_ = w.Lock(mpi2rma.LockShared, r)
	_ = w.Lock(mpi2rma.LockShared, 2)
	_ = w.Unlock(r)
	_ = w.Unlock(2)
}

func suppressed(w *mpi2rma.Win) {
	_ = w.Start([]int{1})
	_ = w.Start([]int{2}) //rmalint:ignore epochorder deliberate for the harness
}

// Deferred calls run at list exit, not where they are written: the
// deferred Unlock must not close the epoch before the Put that follows
// it textually.
func deferUnlockIsFine(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	src := p.Alloc(8)
	_ = w.Lock(mpi2rma.LockExclusive, 1)
	defer w.Unlock(1)
	_ = w.Put(src, 8, nil, 1, 0, 8, nil)
}

// A deferred Unlock with no lock ever taken is still a violation — it is
// applied (and reported) at the point the list ends.
func deferUnlockWithoutLock(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	defer w.Unlock(1) // want "Unlock on rank 1 without holding the lock"
}

// Defers run LIFO: the Unlock defer registered last runs first, so the
// pair below balances exactly once in the right order.
func deferLifoIsFine(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	defer w.Free()
	_ = w.Lock(mpi2rma.LockExclusive, 2)
	defer w.Unlock(2)
}
