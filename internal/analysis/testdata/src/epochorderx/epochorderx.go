// Package epochorderx is the golden input for the epochorder analyzer's
// interprocedural tier: every diagnostic here needs a per-function
// summary to find. The pin test in analyzers_test.go re-runs this package
// with the summaries disabled (the PR 3 behavior) and asserts it goes
// silent, proving these are cross-function catches.
package epochorderx

import (
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/mpi2rma"
	"mpi3rma/internal/runtime"
)

// closeWin is an epoch-closing helper: its summary says "Unlock(1) on
// parameter 0".
func closeWin(w *mpi2rma.Win) {
	_ = w.Unlock(1)
}

// unlockViaHelperWithoutLock: the window is fresh (everything closed), so
// the helper's spliced Unlock is a definite violation, reported at the
// call site.
func unlockViaHelperWithoutLock(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	closeWin(w) // want "call to closeWin: Unlock on rank 1 without holding the lock"
}

// openLock is an epoch-opening helper.
func openLock(w *mpi2rma.Win) {
	_ = w.Lock(mpi2rma.LockExclusive, 1)
}

// doubleLockViaHelper: the helper provably leaves the rank-1 lock held,
// so the direct Lock that follows is a definite double lock.
func doubleLockViaHelper(w *mpi2rma.Win) {
	openLock(w)
	_ = w.Lock(mpi2rma.LockShared, 1) // want "Lock on rank 1 while already holding a lock on that rank"
	_ = w.Unlock(1)
}

// balancedHelper opens and (via defer) closes a lock epoch: its summary
// is Lock(2) … Unlock(2), so callers know the window comes back clean.
func balancedHelper(w *mpi2rma.Win, src memsim.Region) {
	_ = w.Lock(mpi2rma.LockExclusive, 2)
	defer closeRank2(w)
	_ = w.Put(src, 8, nil, 2, 0, 8, nil)
}

func closeRank2(w *mpi2rma.Win) {
	_ = w.Unlock(2)
}

// freeAfterBalancedHelperIsFine: without defer modeling the helper's
// summary would end with the lock still open and the Free would be a
// false positive.
func freeAfterBalancedHelperIsFine(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	balancedHelper(w, p.Alloc(8))
	_ = w.Free()
}

// makeWin creates and returns a window: callers know it starts with every
// epoch closed.
func makeWin(p *runtime.Proc) *mpi2rma.Win {
	r := mpi2rma.Attach(p)
	w, _ := r.WinCreate(p.Comm(), p.Alloc(64))
	return w
}

// accessOnHelperMadeWindow: the window came from a summarized creator, so
// "no epoch open" is provable even though WinCreate is in another
// function.
func accessOnHelperMadeWindow(p *runtime.Proc) {
	w := makeWin(p)
	src := p.Alloc(8)
	_ = w.Put(src, 8, nil, 1, 0, 8, nil) // want "RMA Put outside any epoch"
}

// escapeHelper has unknowable effects on its window (it hands it to a
// dynamic call), so callers must forget everything they knew.
var sink func(*mpi2rma.Win)

func escapeHelper(w *mpi2rma.Win) {
	sink(w)
}

// escapeResetsState: after escapeHelper the fresh window's state is
// unknown; the Unlock that would have been a definite violation must not
// be reported.
func escapeResetsState(p *runtime.Proc) {
	r := mpi2rma.Attach(p)
	w, err := r.WinCreate(p.Comm(), p.Alloc(64))
	if err != nil {
		return
	}
	escapeHelper(w)
	_ = w.Unlock(1)
}
