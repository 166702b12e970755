package core

// Runtime semantic-checker hook.
//
// The paper's Figure 1 critique of MPI-2 RMA is that erroneous overlapping
// accesses are silent: the interface cannot tell the user that two
// origins wrote the same target bytes without the atomicity attribute, or
// that one origin's unordered writes to the same location may apply in
// either order. The strawman interface makes overlap *undefined* rather
// than erroneous (requirement 3), which is exactly why a debugging mode
// must exist that detects it (requirement 5: "most stringent rules while
// debugging").
//
// This file is the engine side of that mode: opt-in access observers,
// installed in the engine's observer snapshot (observe.go) like the tracer
// and the telemetry registry, so the disabled hot path pays one atomic
// load and no allocations. The observer (internal/checker) records every
// remote access applied at this rank as a byte interval and flags
// conflicting overlaps; the engine reports the synchronization event that
// retires intervals (CompleteCollective), and stamps every operation with
// its origin-side epoch so accesses separated by Order or Complete are
// never paired.
//
// Epochs ride in header bits the protocol does not use: hMeta bits 32..63
// carry the origin's per-target epoch counter, which Order and Complete
// advance. The counter is maintained unconditionally (one increment under
// a mutex already held on those paths); only the observer reads it.

import (
	"mpi3rma/internal/vtime"
)

// AccessKind classifies a remote access for the semantic checker.
type AccessKind uint8

const (
	// AccessPut is a plain put (replace) deposit.
	AccessPut AccessKind = iota
	// AccessAcc is an accumulate deposit (element-wise combine).
	AccessAcc
	// AccessGet is a read of target memory.
	AccessGet
	// AccessRMW is a fetch-add or compare-and-swap (always atomic).
	AccessRMW
)

// IsWrite reports whether the access modifies target memory.
func (k AccessKind) IsWrite() bool { return k != AccessGet }

// String returns the access kind's name.
func (k AccessKind) String() string {
	switch k {
	case AccessPut:
		return "put"
	case AccessAcc:
		return "accumulate"
	case AccessGet:
		return "get"
	case AccessRMW:
		return "rmw"
	default:
		return "access"
	}
}

// Access describes one remote operation applied at a target, as the
// semantic checker sees it: who touched which bytes of which exposure,
// with which semantics, and under which origin-side epoch.
type Access struct {
	// Origin is the world rank that issued the operation.
	Origin int
	// Target is the world rank whose memory was accessed (the reporting
	// engine's rank).
	Target int
	// Handle identifies the exposure within the target's engine.
	Handle uint64
	// Disp and Len give the accessed byte interval [Disp, Disp+Len) in
	// exposure coordinates (the extent of the target datatype layout).
	Disp, Len int
	// Kind classifies the access.
	Kind AccessKind
	// Atomic is set when the operation carried AttrAtomic (RMWs always).
	Atomic bool
	// Ordered is set when the operation carried AttrOrdering.
	Ordered bool
	// OpID is the origin's request id for singleton operations, or the
	// batch envelope id for batched members (PR 2's trace/span ids, so a
	// conflict report can be correlated with a timeline dump).
	OpID uint64
	// Member is the index within the batch envelope, or -1 for
	// singletons.
	Member int
	// Epoch is the origin's per-target synchronization epoch at issue
	// time; Order and Complete advance it. Accesses from the same origin
	// in different epochs are ordered by definition and never conflict.
	Epoch uint64
	// At is the virtual time the access was applied.
	At vtime.Time
}

// AccessRecorder observes applied accesses and synchronization events.
// internal/checker implements it; implementations must be safe for
// concurrent use (applies run on whichever goroutine delivers: the holder
// of the target NIC's delivery token, or a Progress call).
type AccessRecorder interface {
	// RecordAccess is called after each remote access is applied at the
	// target, before the operation is counted as applied — so an origin's
	// Complete returning happens strictly after every record of its
	// operations. A deposit that was lost (unexposed memory, wire bytes
	// that do not fit the layout) touched nothing and is not recorded.
	RecordAccess(a Access)
	// RetireTarget is called by target inside CompleteCollective, after
	// every inbound operation is applied and before the closing barrier:
	// all intervals recorded at target are retired.
	RetireTarget(target int)
}

// advanceEpochs bumps the per-target epoch for every covered target
// (Order's and Complete's contribution to the checker: accesses from this
// origin before and after either are ordered, so they must never be
// paired).
func (e *Engine) advanceEpochs(targets []int) {
	e.mu.Lock()
	for _, world := range targets {
		ts := e.targetLocked(world)
		if ts.sent > 0 {
			ts.chkEpoch++
		}
	}
	e.mu.Unlock()
}
