package core

import (
	"errors"

	"mpi3rma/internal/portals"
)

// Sentinel errors of the RMA engine. Every error returned by the engine
// (and by the MPI-2 layer in internal/mpi2rma, which shares this
// vocabulary) wraps exactly one of these, so callers can classify
// failures with errors.Is without parsing message strings:
//
//   - ErrBadHandle — the operation addressed memory that is not (or is no
//     longer) exposed: an invalid or retracted target_mem descriptor, a
//     descriptor owned by a different rank than the named target, a freed
//     MPI-2 window, or a target rank outside the communicator.
//   - ErrBounds — the operation itself is malformed: negative counts or
//     displacements, an access extending past the exposed region, or an
//     origin buffer too small for the declared datatype layout.
//   - ErrType — the transfer's type signatures are incompatible, or the
//     accumulate operation is not defined for the element kind.
//   - ErrEpoch — a synchronization-protocol violation: MPI-2 access or
//     exposure epochs opened/closed out of order, RMA calls outside any
//     epoch, or a completion exchange that returned inconsistent state.
//
// The error message still carries the operation-specific detail; the
// sentinel only fixes the class.
var (
	ErrBadHandle = errors.New("bad target_mem handle")
	ErrBounds    = errors.New("access out of bounds")
	ErrType      = errors.New("incompatible type signature")
	ErrEpoch     = errors.New("synchronization epoch violation")
)

// ErrLinkFailed is the graceful-degradation sentinel: the reliable-
// delivery relay exhausted its retry budget toward a target, so requests
// addressing it fail instead of waiting for acknowledgements that will
// never come. It is portals.ErrLinkFailed re-exported so engine callers
// classify transport failures without importing the transport.
var ErrLinkFailed = portals.ErrLinkFailed

// ErrRankFailed is the rank-death sentinel: the membership service
// confirmed a target rank crashed (retry-budget exhaustion toward it was
// corroborated by the simulation's RAS ground truth). It is deliberately
// disjoint from ErrLinkFailed — errors.Is(err, ErrLinkFailed) stays false
// for a dead rank — because the two demand different reactions: a failed
// link degrades one path while the rank's data survives, whereas a dead
// rank's exposures are gone until the rebuild protocol promotes its
// buddy's replica onto a spare (DESIGN.md §14). The triggering link error
// is folded into the message text, not the wrap chain.
var ErrRankFailed = errors.New("rank failed: peer declared dead")

// ErrApplyFault is the sticky sentinel for a target-side apply failure: a
// sharded apply panicked while depositing an operation. The engine survives
// — the apply recovers the panic — but its memory can no longer be trusted,
// so every outstanding request and every later completion wait on this
// rank fails wrapping ErrApplyFault, and Err() reports it.
var ErrApplyFault = errors.New("target apply fault")
