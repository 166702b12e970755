// Package core implements the paper's primary contribution: the strawman
// MPI-3 RMA interface (Section IV), with per-operation attributes, a
// non-collectively created target-memory object, datatype support,
// request-based completion, per-rank / all-ranks / collective completion
// and ordering calls, and the read-modify-write extensions discussed in
// Section V.
//
// The design requirements it realizes (paper Section IV):
//
//  1. No constraints on memory — target memory is exposed (Expose /
//     Associate) by its owner alone, never collectively.
//  2. Nonblocking operations with requests for overlap.
//  3. Overlapping access is permitted (result undefined), not erroneous.
//  4. Blocking single-call operations via the Blocking attribute.
//  5. Per-call (or per-communicator-default) consistency/atomicity/
//     completion attributes.
//  6. Non-cache-coherent and heterogeneous targets (memsim coherence
//     models; byte-order conversion through datatypes).
//  7. Noncontiguous transfers via datatypes.
//  8. Scalable completion: Complete(comm, AllRanks) and the collective
//     variants.
package core

import (
	"fmt"
	"strings"
	"time"
)

// Attr is a set of RMA operation attributes (paper Section III-A derives
// them from memory-consistency requirements; Section IV makes them
// per-call parameters).
type Attr uint32

const (
	// AttrNone requests the cheapest possible transfer: locally complete,
	// unordered, non-atomic.
	AttrNone Attr = 0
	// AttrOrdering guarantees this operation is applied at the target
	// after every earlier ordered operation from this origin to the same
	// target (the read/write-consistency "ordering property"). Free on
	// ordered networks; enforced with sequence numbers and a target-side
	// reorder buffer otherwise.
	//
	// Granularity note: ordering is guaranteed between operations that
	// are applied by the same target mechanism — among non-atomic
	// operations, and among atomic operations. A stream mixing atomic and
	// non-atomic accesses to the same location is applied by different
	// mechanisms (per-origin or shard lanes vs the serializer)
	// and may interleave;
	// programs needing a totally ordered mixed stream should give every
	// operation in it the same atomicity attribute. (The paper leaves
	// this granularity open; MPI-3's eventual accumulate-ordering rules
	// made the same class distinction.)
	AttrOrdering Attr = 1 << iota
	// AttrRemoteComplete makes the operation's request complete only when
	// the data has been applied at the target (remote completion), not
	// merely when it has left the origin.
	AttrRemoteComplete
	// AttrAtomic applies the operation atomically with respect to every
	// other atomic operation at the target, using the target's configured
	// serializer mechanism.
	AttrAtomic
	// AttrBlocking performs the operation in a single call: the call
	// returns only when the request would have completed. It allocates no
	// request: it returns the engine's one shared done request and nil, or
	// nil and the operation's error, an asynchronous one (a target-side
	// failure, ErrRankFailed, ErrLinkFailed) included.
	AttrBlocking
	// AttrNotify requests a delivery-counter notification: when the
	// operation has been applied, the target ships its cumulative
	// applied-operation counter back to the origin on the NIC-generated
	// (hardware) path. The request still completes locally — the
	// notification feeds the origin's per-target confirmation counter, so
	// a later Complete that finds every issued operation already confirmed
	// (or confirmable) skips the probe round-trip entirely. This is the
	// UNR-style "notified" operation attribute; batched operations get it
	// implicitly (one notification per aggregate message).
	AttrNotify
)

// String renders the attribute set, e.g. "ordering|atomic".
func (a Attr) String() string {
	if a == AttrNone {
		return "none"
	}
	var parts []string
	if a&AttrOrdering != 0 {
		parts = append(parts, "ordering")
	}
	if a&AttrRemoteComplete != 0 {
		parts = append(parts, "remote-complete")
	}
	if a&AttrAtomic != 0 {
		parts = append(parts, "atomic")
	}
	if a&AttrBlocking != 0 {
		parts = append(parts, "blocking")
	}
	if a&AttrNotify != 0 {
		parts = append(parts, "notify")
	}
	if rest := a &^ (AttrOrdering | AttrRemoteComplete | AttrAtomic | AttrBlocking | AttrNotify); rest != 0 {
		parts = append(parts, fmt.Sprintf("Attr(%#x)", uint32(rest)))
	}
	return strings.Join(parts, "|")
}

// AllRanks, passed as the target rank of Complete or Order, applies the
// operation to every rank of the communicator (the paper's MPI_ALL_RANKS).
const AllRanks = -1

// OpType selects the transfer direction of Xfer (the paper's rma_optype).
type OpType int

const (
	// OpPut writes origin data to target memory.
	OpPut OpType = iota
	// OpGet reads target memory into origin memory.
	OpGet
	// OpAccumulate combines origin data into target memory.
	OpAccumulate
	// OpInvoke is the expansion the paper sketches for the optype ("in
	// the future, this optype may be used for expanding the interface.
	// One example of such expansion is the invocation of a remote
	// function"): the origin buffer is the payload and the target
	// displacement names the registered handler id. Extension; see
	// Engine.RegisterAM.
	OpInvoke
)

// String returns the op type's name.
func (o OpType) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpAccumulate:
		return "accumulate"
	case OpInvoke:
		return "invoke"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// AccOp selects the combining operation of an accumulate (the paper's
// accumulate_optype). MPI-2 allowed all reduce operations; ARMCI only a
// daxpy — the strawman keeps the full set plus the daxpy for parity.
type AccOp uint8

const (
	// AccNone marks a plain put (no combining).
	AccNone AccOp = iota
	// AccReplace overwrites (MPI_REPLACE).
	AccReplace
	// AccSum adds (MPI_SUM).
	AccSum
	// AccProd multiplies (MPI_PROD).
	AccProd
	// AccMin keeps the minimum (MPI_MIN).
	AccMin
	// AccMax keeps the maximum (MPI_MAX).
	AccMax
	// AccAxpy computes target = scale*origin + target over float64
	// elements (the ARMCI-style daxpy accumulate).
	AccAxpy
)

// String returns the accumulate op's name.
func (o AccOp) String() string {
	switch o {
	case AccNone:
		return "none"
	case AccReplace:
		return "replace"
	case AccSum:
		return "sum"
	case AccProd:
		return "prod"
	case AccMin:
		return "min"
	case AccMax:
		return "max"
	case AccAxpy:
		return "axpy"
	default:
		return fmt.Sprintf("AccOp(%d)", uint8(o))
	}
}

// The modelled cost of applying data into target memory: a fixed
// overhead per update plus Options.ApplyPerKB per KiB.
const (
	// DefaultApplyOverhead is the fixed virtual-time cost of one memory
	// update at the target, on every engine.
	DefaultApplyOverhead = 100 * time.Nanosecond
	// DefaultApplyPerKB is the virtual-time cost of updating 1024 bytes
	// of target memory (256ns/KB ≈ 4 GB/s of apply bandwidth).
	DefaultApplyPerKB = 256 * time.Nanosecond
)
