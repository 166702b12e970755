// Package armci implements an ARMCI-like one-sided communication library
// (paper Section VI): the Aggregate Remote Memory Copy Interface used by
// the Global Arrays toolkit.
//
// Semantics reproduced from the paper's description:
//
//   - Contiguous, vector and strided Put, Get and Accumulate operations.
//   - Blocking and nonblocking variants; *all blocking operations are
//     ordered by the library*, nonblocking operations have no ordering
//     guarantee.
//   - Accumulate is "similar to a daxpy where x is the remote memory and
//     y and a are inputs", and accumulate operations are serialized.
//   - Fence (per target) and AllFence wait for remote completion of
//     previous operations.
//   - Memory participates via collective allocation (ARMCI_Malloc).
//
// The implementation is a client of the public rma facade alone and maps
// each rule onto strawman attributes — the mapping itself documents the
// paper's claim that the strawman interface subsumes ARMCI
// (blocking⇒WithBlocking+WithOrdering, accumulate⇒WithAtomic,
// fence⇒Complete) — while the strawman additionally offers what ARMCI
// cannot express: blocking *unordered* operations and completion checks for
// operation subsets. Remote memory is named by its descriptor alone: a
// TargetMem carries its owner's rank.
package armci

import (
	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// ARMCI is one rank's ARMCI library state.
type ARMCI struct {
	proc *runtime.Proc
	s    *rma.Session
}

// extKey is the Proc extension slot.
const extKey = "armci"

// Attach returns the rank's ARMCI layer, creating it on first use.
func Attach(p *runtime.Proc) *ARMCI {
	return p.Ext(extKey, func() any {
		return &ARMCI{proc: p, s: rma.Open(p)}
	}).(*ARMCI)
}

// Malloc is ARMCI_Malloc: every member of comm contributes size bytes and
// receives the descriptors of all members' allocations, indexed by comm
// rank. The local region is returned alongside.
func (a *ARMCI) Malloc(comm *runtime.Comm, size int) ([]rma.TargetMem, rma.Region, error) {
	return a.s.On(comm).ExposeCollective(size)
}

// Put copies n bytes from src (at srcOff) into dst at dstOff — ARMCI_Put.
// Blocking and ordered.
func (a *ARMCI) Put(src rma.Region, srcOff int, dst rma.TargetMem, dstOff, n int) error {
	_, err := a.s.Put(sub(src, srcOff, n), n, rma.Byte, dst, dstOff, rma.WithBlocking(), rma.WithOrdering())
	return err
}

// PutNB is ARMCI_NbPut: nonblocking and unordered. Wait or Test the
// returned request (ARMCI_Wait / ARMCI_Test).
func (a *ARMCI) PutNB(src rma.Region, srcOff int, dst rma.TargetMem, dstOff, n int) (*rma.Request, error) {
	return a.s.Put(sub(src, srcOff, n), n, rma.Byte, dst, dstOff)
}

// Get copies n bytes from src at srcOff into dst at dstOff — ARMCI_Get.
// Blocking.
func (a *ARMCI) Get(dst rma.Region, dstOff int, src rma.TargetMem, srcOff, n int) error {
	_, err := a.s.Get(sub(dst, dstOff, n), n, rma.Byte, src, srcOff, rma.WithBlocking(), rma.WithOrdering())
	return err
}

// GetNB is ARMCI_NbGet.
func (a *ARMCI) GetNB(dst rma.Region, dstOff int, src rma.TargetMem, srcOff, n int) (*rma.Request, error) {
	return a.s.Get(sub(dst, dstOff, n), n, rma.Byte, src, srcOff)
}

// Acc is ARMCI_Acc: remote[i] += scale * local[i] over float64 elements —
// the daxpy-style accumulate, serialized (atomic) per ARMCI semantics.
// count is the number of float64 elements.
func (a *ARMCI) Acc(scale float64, src rma.Region, srcOff int, dst rma.TargetMem, dstOff, count int) error {
	_, err := a.s.AccumulateAxpy(scale, sub(src, srcOff, count*8), count, rma.Float64, dst, dstOff,
		rma.WithBlocking(), rma.WithOrdering(), rma.WithAtomic())
	return err
}

// AccNB is the nonblocking accumulate (still serialized at the target).
func (a *ARMCI) AccNB(scale float64, src rma.Region, srcOff int, dst rma.TargetMem, dstOff, count int) (*rma.Request, error) {
	return a.s.AccumulateAxpy(scale, sub(src, srcOff, count*8), count, rma.Float64, dst, dstOff, rma.WithAtomic())
}

// Fence is ARMCI_Fence: blocks until all operations issued to rank are
// remotely complete.
func (a *ARMCI) Fence(rank int) error { return a.s.Complete(rank) }

// AllFence is ARMCI_AllFence: remote completion at every rank.
func (a *ARMCI) AllFence() error { return a.s.Complete() }

// Barrier is ARMCI_Barrier: AllFence plus a barrier.
func (a *ARMCI) Barrier() error {
	if err := a.AllFence(); err != nil {
		return err
	}
	a.proc.Barrier()
	return nil
}

// sub narrows a region to [off, off+n).
func sub(r rma.Region, off, n int) rma.Region {
	return rma.Region{Offset: r.Offset + off, Size: n}
}
