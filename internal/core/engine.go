package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpi3rma/internal/lockrank"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// Message kinds of the strawman RMA protocol.
const (
	kPut       = portals.KindCoreBase + 0  // put / accumulate (AccOp in header)
	kGet       = portals.KindCoreBase + 1  // get request
	kGetReply  = portals.KindCoreBase + 2  // get data
	kAck       = portals.KindCoreBase + 3  // remote-completion acknowledgement
	kProbe     = portals.KindCoreBase + 4  // completion probe (RMA_complete)
	kProbeAck  = portals.KindCoreBase + 5  // completion probe reply
	kLockReq   = portals.KindCoreBase + 6  // coarse-grain lock request
	kLockGrant = portals.KindCoreBase + 7  // coarse-grain lock grant
	kLockRel   = portals.KindCoreBase + 8  // coarse-grain lock release
	kRMW       = portals.KindCoreBase + 9  // fetch-and-add / compare-and-swap
	kRMWReply  = portals.KindCoreBase + 10 // RMW old value
	kAM        = portals.KindCoreBase + 11 // active-message extension
	kBatch     = portals.KindCoreBase + 12 // aggregated put/accumulate batch
	kNotify    = portals.KindCoreBase + 13 // delivery-counter notification

	// Buddy-replication and rebuild protocol (DESIGN.md §14).
	kReplExpose  = portals.KindCoreBase + 14 // primary -> buddy: mirror this exposure
	kReplUpdate  = portals.KindCoreBase + 15 // primary -> buddy: versioned region bytes
	kReplAck     = portals.KindCoreBase + 16 // buddy -> primary: cumulative replicated version
	kRebuild     = portals.KindCoreBase + 17 // buddy -> spare: replay one replica
	kRebuildDone = portals.KindCoreBase + 18 // buddy -> spare: replay finished, start serving
	kPing        = portals.KindCoreBase + 19 // failure ping (bait for the relay's failure detector)
)

// Header word indices shared by the protocol messages.
const (
	hHandle = 0 // target_mem handle (kPut/kGet/kRMW); expected count (kProbe); AM id (kAM)
	hDisp   = 1 // byte displacement into the target memory
	hCount  = 2 // target datatype count
	hMeta   = 3 // attrs (low 16) | AccOp<<16 | RMW sub-op<<24 | checker epoch<<32
	hReq    = 4 // origin request id (routing for replies)
	hSeq    = 5 // ordered-stream sequence number (0 = not ordered)
)

// Message flag bits (simnet.Message.Flags) for core kinds.
const (
	flagUnlockAfter = 1 << 0 // release the coarse lock after applying this op
)

// RMW sub-ops carried in hMeta bits 24..31.
const (
	rmwFetchAdd = 1
	rmwCompSwap = 2
	rmwFetch    = 3
)

// Options configures a rank's RMA engine.
type Options struct {
	// Atomicity selects the serializer mechanism backing the Atomic
	// attribute (default MechThread, the cheap case of Figure 2).
	Atomicity serializer.Mechanism
	// ApplyPerKB is the virtual-time cost of updating 1024 bytes of
	// target memory (0 = DefaultApplyPerKB).
	ApplyPerKB time.Duration
	// ProgressQuantum models, for the MechProgress serializer, how often
	// the target enters the library: deferred atomic operations apply at
	// the next multiple of the quantum after they arrive (0 = the target
	// polls continuously).
	ProgressQuantum time.Duration
	// DefaultAttrs is ORed into the attributes of every operation issued
	// by this rank (the engine-level default).
	DefaultAttrs Attr
	// AddrBits is this rank's address-space width, 32 or 64 (0 = 64).
	AddrBits uint8
	// BatchOps enables origin-side operation batching: up to BatchOps
	// small puts/accumulates per (origin, target) pair are coalesced into
	// one aggregated wire message, unpacked and applied individually at
	// the target. 0 disables batching. A pending batch is flushed when it
	// reaches BatchOps operations or DefaultBatchBytes payload bytes, when
	// a non-batchable operation (get, RMW, active message, blocking or
	// coarse-locked atomic op) is issued to the same target, and by
	// Flush/Order/Complete.
	BatchOps int
	// ApplyShards partitions each exposed target memory into this many
	// fixed byte-range shards, each charging its applies to a modelled
	// lane instead of the per-origin lanes of the serial target path.
	// Operations confined to one shard overlap in modelled time with other
	// lanes' work; spanning and ordered operations route through the
	// designated shard 0 (see shard.go). Every apply runs inline, in
	// routing order. 0 or 1 keeps the serial engine, which is
	// bit-compatible by construction.
	ApplyShards int
	// ApplyWorkers is the number of modelled apply lanes the shards share,
	// shard s charging lane s mod ApplyWorkers (0 = one lane per shard).
	ApplyWorkers int
}

// DefaultBatchBytes bounds the accumulated payload of one batch.
// Operations larger than it bypass the batch entirely: aggregation only
// pays off for small operations.
const DefaultBatchBytes = 8192

func (o Options) withDefaults() Options {
	if o.ApplyPerKB == 0 {
		o.ApplyPerKB = DefaultApplyPerKB
	}
	if o.AddrBits == 0 {
		o.AddrBits = 64
	}
	if o.ApplyShards > 1 && o.ApplyWorkers <= 0 {
		o.ApplyWorkers = o.ApplyShards
	}
	return o
}

// originTarget is origin-side per-target bookkeeping.
type originTarget struct {
	sent         int64  // ops issued to this target (puts, accumulates, gets, RMWs, AMs)
	batched      int64  // of sent: ops that rode an aggregated message
	singleton    int64  // of sent: ops that paid their own wire message
	willConfirm  int64  // ops whose application will report a delivery counter (notify, remote-complete, batch, reply-carrying ops)
	orderSeq     uint64 // ordered-stream sequence for AttrOrdering on unordered networks
	chkEpoch     uint64 // synchronization epoch stamped on issued ops (advanced by Order/Complete; read by the semantic checker)
	fencePending bool   // an Order() is pending; next op must stall for drain

	ring issueRing // batched ops waiting for this target's next aggregate
}

// reorderBuf holds ordered-stream ops that arrived out of order, each
// record stamped with its own arrival (applyOp.heldAt).
type reorderBuf struct {
	expected uint64 // sequence number of the last op let through
	held     map[uint64]*applyOp
}

// freeListCap bounds every free list: enough for the operations a rank has
// in flight in the steady state, too few to show in its memory.
const freeListCap = 64

// freeList is a stack of at most limit objects to reuse, empty until
// something is put back. Takers run on the rank's goroutine and on
// whichever goroutine delivers, putters on whichever goroutine finishes an
// operation, hence the lock. Unlike a sync.Pool it never drops an object
// it has room for, so what a call allocates is the same on every run.
type freeList[T any] struct {
	mu    sync.Mutex
	limit int
	items []T
}

// get pops an object, or returns the zero value when there is none.
func (f *freeList[T]) get() (x T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return x
	}
	x = f.items[n-1]
	clear(f.items[n-1:])
	f.items = f.items[:n-1]
	return x
}

// put pushes x, or drops it for the collector when the list is full.
func (f *freeList[T]) put(x T) {
	f.mu.Lock()
	if len(f.items) < f.limit {
		f.items = append(f.items, x)
	}
	f.mu.Unlock()
}

// Engine is one rank's strawman RMA engine. Obtain it with Attach; there
// is exactly one per rank (it owns the rank's core message handlers).
type Engine struct {
	proc *runtime.Proc
	opts Options
	// quarantine poisons every consumed frame and keeps none (frame.go):
	// the recycle-safety test sets it so a stale touch cannot hide behind
	// a reuse.
	quarantine bool

	mu      sync.Mutex
	tmems   map[uint64]*exposure
	tmemSeq uint64
	slab    []*reqSlot      // requests a frame completes, by slot (request.go)
	free    []int32         // free slots of slab
	reqSeq  uint64          // the last request or batch id's sequence number
	loose   []atomic.Uint64 // per target: requests unobserved and uncovered (request.go)
	targets map[int]*originTarget
	comms   map[uint64]Attr // per-communicator default attributes

	// Origin-side completion state, guarded by cmplMu. confirmed[t] is the
	// watermark of target t's reports (notifications, acks, replies, probe
	// answers), indexed by world rank and sized once at Attach: the highest
	// cumulative applied-operation count t has reported back, the virtual
	// arrival time of that report, and the calls waiting on it (see
	// watermark.go). pendingBatches routes batch notifications to the
	// remote-completion requests of the batch's member operations.
	cmplMu         lockrank.Mutex
	confirmed      []watermark
	pendingBatches map[uint64]*pendingBatch
	// failedLinks records links whose reliable-delivery retry budget ran
	// out (graceful degradation: requests to those targets fail with
	// ErrLinkFailed instead of waiting forever). failedRanks records peers
	// the membership service confirmed dead: requests toward them fail
	// with ErrRankFailed (not ErrLinkFailed — the rank is gone, not the
	// path). Both are per-peer — operations toward live ranks keep
	// completing — and each files its first failure under AllRanks too,
	// for Err(). applyErr is the engine-fatal sticky failure (a sharded
	// apply panic): unlike a single failed link it poisons every wait,
	// because the target-side apply pipeline itself is no longer
	// trustworthy. All three are read through stickyLocked.
	failedLinks map[int]fault
	failedRanks map[int]fault
	applyErr    fault

	// Target-side state, guarded by tgtMu because applies may run on any
	// delivering goroutine (whichever holds the NIC's delivery token) or a
	// Progress call. applied[o] is
	// the delivery watermark of origin o, indexed like confirmed: what this
	// rank has applied from o, the virtual time of the latest application,
	// and who waits on it — local calls and o's parked completion probes
	// alike. lastApplied is the latest application from anyone, the stamp
	// collective completion returns.
	tgtMu       lockrank.Mutex
	lastApplied vtime.Time
	applied     []watermark
	reorder     map[int]*reorderBuf
	lanes       map[int]*vtime.Clock
	atomicLane  vtime.Clock

	// Per-operation objects that never leave the engine are reused: ops are
	// the target-side operation records (apply.go), slots what a blocked
	// call sleeps on (watermark.go).
	ops   freeList[*applyOp]
	slots freeList[*wakeSlot]
	// spare is the one frame a consumer handed back, for the next message
	// of a recycled kind (frame.go).
	spare   spareSlot
	doneReq Request // what every successful blocking call returns (AttrBlocking)

	lock   *serializer.LockState
	applyQ *serializer.ApplyQueue
	progQ  *serializer.ProgressQueue
	// bell is every wake slot's bell; under the progress serializer a
	// deferred apply rings it too (wait, scheduleApply).
	bell *runtime.Bell

	// Sharded apply state (nil when Options.ApplyShards <= 1; see
	// shard.go): one set of telemetry cells per shard, and the modelled
	// apply lanes they share.
	shards     []shardCells
	shardLanes []vtime.WorkLane

	amMu sync.Mutex
	am   map[uint64]AMHandler

	// repl is the buddy-replication state (see replication.go). The struct
	// always exists so the protocol handlers have somewhere to land parked
	// frames; EnableReplication flips it on for this rank's exposures.
	repl replState

	// obs is the one immutable snapshot of everything installed on the
	// engine that is not part of the protocol (see observe.go). It is nil
	// until something is installed, replaced whole under hookMu, and read
	// with one atomic load — the whole cost of every emit and publication
	// site while nothing is installed.
	obs    atomic.Pointer[observers]
	hookMu sync.Mutex

	// Counters.
	OpsIssued       stats.Counter
	OpsApplied      stats.Counter
	AcksSent        stats.Counter
	Probes          stats.Counter
	HeldOps         stats.Counter // ordered ops buffered due to out-of-order arrival
	FenceStalls     stats.Counter // Order()-induced stalls before an op issue
	Batches         stats.Counter // aggregated messages sent
	BatchedOps      stats.Counter // operations that rode an aggregated message
	SingletonOps    stats.Counter // operations that paid their own wire message
	FramesReused    stats.Counter // sent frames that came back consumed and became the spare
	FramesAbandoned stats.Counter // sent frames still held elsewhere when their sender let go
	Notifies        stats.Counter // delivery-counter notifications received
	FastPaths       stats.Counter // Complete calls answered from counters, no probe
	CompleteCalls   stats.Counter // Complete invocations
	ProbeFallbacks  stats.Counter // Complete targets that needed the probe round-trip
	ShardBypass     stats.Counter // applies routed around the shards (serializer/serial path)
	ShardDesignated stats.Counter // applies routed through the designated shard
	ShardPanics     stats.Counter // sharded applies that panicked (recovered, engine failed)
	ReplUpdates     stats.Counter // versioned replica updates shipped to the buddy
	ReplAcks        stats.Counter // replica acknowledgements answered as buddy
	Rebuilds        stats.Counter // replayed regions sent to a spare as promoter
	Pings           stats.Counter // failure pings sent while the world was quiet
}

// extKey is the Proc extension slot the engine lives in.
const extKey = "core.rma"

// Attach returns the rank's RMA engine, creating it (and registering the
// protocol handlers) on first use. Options are honoured only by the
// creating call; later calls return the existing engine unchanged.
func Attach(p *runtime.Proc, opts Options) *Engine {
	return p.Ext(extKey, func() any {
		e := &Engine{
			proc:           p,
			tgtMu:          lockrank.Mutex{Rank: lockrank.Target},
			cmplMu:         lockrank.Mutex{Rank: lockrank.Confirm},
			bell:           p.NewBell(),
			opts:           opts.withDefaults(),
			tmems:          make(map[uint64]*exposure),
			targets:        make(map[int]*originTarget),
			comms:          make(map[uint64]Attr),
			loose:          make([]atomic.Uint64, p.World().TotalRanks()),
			confirmed:      make([]watermark, p.World().TotalRanks()),
			pendingBatches: make(map[uint64]*pendingBatch),
			failedLinks:    make(map[int]fault),
			failedRanks:    make(map[int]fault),
			applied:        make([]watermark, p.World().TotalRanks()),
			reorder:        make(map[int]*reorderBuf),
			lanes:          make(map[int]*vtime.Clock),
			lock:           serializer.NewLockState(),
			am:             make(map[uint64]AMHandler),
			ops:            freeList[*applyOp]{limit: freeListCap},
			slots:          freeList[*wakeSlot]{limit: freeListCap},
		}
		e.doneReq.e, e.doneReq.done = e, true
		e.repl.init()
		switch e.opts.Atomicity {
		case serializer.MechThread:
			e.applyQ = serializer.NewApplyQueue()
		case serializer.MechProgress:
			e.progQ = serializer.NewProgressQueue(e.opts.ProgressQuantum)
		}
		nic := p.NIC()
		if e.opts.ApplyShards > 1 {
			e.shards = make([]shardCells, e.opts.ApplyShards)
			// Lanes past the shard count would never be charged.
			e.shardLanes = make([]vtime.WorkLane, min(e.opts.ApplyWorkers, e.opts.ApplyShards))
		}
		for _, k := range []uint8{kPut, kGet, kRMW, kAM, kBatch} {
			nic.RegisterHandler(k, e.handleOp)
		}
		nic.RegisterHandler(kGetReply, e.handleGetReply)
		nic.RegisterHandler(kAck, e.handleAck)
		nic.RegisterHandler(kProbe, e.handleProbe)
		nic.RegisterHandler(kProbeAck, e.handleProbeAck)
		nic.RegisterHandler(kLockReq, e.handleLockReq)
		nic.RegisterHandler(kLockGrant, e.handleLockGrant)
		nic.RegisterHandler(kLockRel, e.handleLockRel)
		nic.RegisterHandler(kRMWReply, e.handleRMWReply)
		nic.RegisterHandler(kNotify, e.handleNotify)
		nic.RegisterHandler(kReplExpose, e.handleReplExpose)
		nic.RegisterHandler(kReplUpdate, e.handleReplUpdate)
		nic.RegisterHandler(kReplAck, e.handleReplAck)
		nic.RegisterHandler(kRebuild, e.handleRebuild)
		nic.RegisterHandler(kRebuildDone, e.handleRebuildDone)
		nic.RegisterHandler(kPing, e.handlePing)
		nic.SetLinkFailureHandler(e.onLinkFailed)
		p.World().Members().Subscribe(e.onRankDead)
		nic.SetRetransmitObserver(func(dst int, rseq uint64, attempt int, at vtime.Time) {
			e.emit(trace.KindRetransmit, at, dst, rseq, int64(attempt), 0)
		})
		return e
	}).(*Engine)
}

// Attached returns the rank's RMA engine if one was created by Attach,
// without creating one. Cross-rank observers (timeline merges, the
// critical-path analyzer, rmatop) use it to inspect peers' tracers and
// health without attaching engines as a side effect.
func Attached(p *runtime.Proc) *Engine {
	if v, ok := p.ExtPeek(extKey); ok {
		return v.(*Engine)
	}
	return nil
}

// Proc returns the owning process.
func (e *Engine) Proc() *runtime.Proc { return e.proc }

// Mechanism returns the serializer mechanism backing the Atomic attribute.
func (e *Engine) Mechanism() serializer.Mechanism { return e.opts.Atomicity }

// SetCommAttrs sets default attributes for every operation this rank
// issues on comm (the paper's communicator-level attribute setting). The
// effective attributes of an operation are the union of the per-call
// attributes, the communicator default, and the engine default.
func (e *Engine) SetCommAttrs(comm *runtime.Comm, attrs Attr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.comms[comm.ID()] = attrs
}

// effectiveAttrs folds the per-call attributes with the communicator and
// engine defaults.
func (e *Engine) effectiveAttrs(comm *runtime.Comm, attrs Attr) Attr {
	e.mu.Lock()
	defer e.mu.Unlock()
	return attrs | e.comms[comm.ID()] | e.opts.DefaultAttrs
}

// target returns (creating if needed) the origin-side state for a world
// rank. Caller must hold e.mu.
func (e *Engine) targetLocked(world int) *originTarget {
	t := e.targets[world]
	if t == nil {
		t = &originTarget{ring: issueRing{max: e.opts.BatchOps}}
		e.targets[world] = t
	}
	return t
}

// laneFor returns the per-origin apply lane for non-atomic updates.
// Caller must hold e.tgtMu.
func (e *Engine) laneForLocked(src int) *vtime.Clock {
	l := e.lanes[src]
	if l == nil {
		l = &vtime.Clock{}
		e.lanes[src] = l
	}
	return l
}

// applyCost models the virtual time of depositing n payload bytes.
func (e *Engine) applyCost(n int) time.Duration {
	return DefaultApplyOverhead + time.Duration(int64(n)*int64(e.opts.ApplyPerKB)/1024)
}

// Progress drains atomic operations deferred by the MechProgress
// serializer (a no-op under other mechanisms) and returns how many were
// applied. Every library entry point of the owning rank implicitly makes
// progress, mirroring MPI's progress rule.
func (e *Engine) Progress() int {
	if e.progQ == nil {
		return 0
	}
	return e.progQ.Progress(e.proc.Now())
}

// noteApplied is shared post-apply bookkeeping: count the op, wake whoever
// the new count satisfies — local waits and the origin's parked completion
// probes and Select's OnApplied cases — and return the new cumulative
// applied count for src — the value every target→origin report carries
// back as the delivery counter of the notified-completion protocol. This
// is the watermark join: every applied operation, on every path (serial,
// sharded, serialized), funnels through here under tgtMu.
func (e *Engine) noteApplied(src int, at vtime.Time) int64 {
	e.OpsApplied.Inc()
	e.tgtMu.Lock()
	count := e.applied[src].count + 1
	ready := e.applied[src].raise(count, at)
	if at > e.lastApplied {
		e.lastApplied = at
	}
	e.tgtMu.Unlock()
	wakeAll(ready, count, at)
	e.emit(trace.KindDelivery, at, src, 0, count, 0)
	return count
}

// sendReply ships a handler-generated protocol reply and reclaims its
// frame. A failed send can only mean the world is shutting down (the
// network refuses senders after close); the reply is dropped and counted
// rather than crashing the goroutine that carries it. The caller must hold
// no engine lock: the send can run the destination's handlers — and, down
// a reply chain, this rank's own — on this goroutine.
func (e *Engine) sendReply(at vtime.Time, m *frame) {
	if _, err := e.proc.NIC().Send(at, &m.Message); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
	e.reclaim(m)
}

// sendReplyNIC is sendReply through the NIC-generated (hardware) path.
func (e *Engine) sendReplyNIC(at vtime.Time, m *frame) {
	if _, err := e.proc.NIC().SendNIC(at, &m.Message); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
	e.reclaim(m)
}

// sendAck is sendReply for an ack or notification: the NIC decides
// between its hardware path and a software echo (portals.NIC.SendAck).
func (e *Engine) sendAck(at vtime.Time, m *frame, software bool) {
	if _, err := e.proc.NIC().SendAck(at, &m.Message, software); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
	e.reclaim(m)
}

// onLinkFailed is the NIC's link-failure callback: the reliable-delivery
// relay exhausted its retry budget toward dst. Budget exhaustion is also
// the failure detector's trigger: the membership service checks the
// suspect against the simulation's RAS ground truth, and a confirmed
// death is handled by onRankDead (fanned out to every rank's engine)
// instead — the outstanding work then fails with ErrRankFailed, not
// ErrLinkFailed. Only an unconfirmed suspect (the link broke, the rank
// lives) takes the degradation path below: every outstanding request and
// pending batch targeting dst is failed with the wrapped ErrLinkFailed,
// and waiters on the confirmation counters are woken to observe it.
func (e *Engine) onLinkFailed(dst int, at vtime.Time, cause error) {
	if w := e.proc.World(); w != nil {
		// A rank that is itself dead keeps exhausting budgets toward live
		// peers (its outbound frames are blackholed); its reports must not
		// taint live ranks' liveness state, so only live reporters feed
		// the failure detector. The zombie still records the local link
		// failure below — that is what unblocks its own waiting calls.
		if !w.Net().RankDeadAt(e.proc.Rank(), at) && w.Members().Suspect(dst, at, cause) {
			return
		}
	}
	err := fmt.Errorf("core: %w", cause)
	if e.recordSticky(e.failedLinks, dst, fault{err, at}) {
		e.failOutstanding(trace.KindLinkFailed, dst, at, err)
	}
}

// onRankDead is the membership service's death callback, invoked exactly
// once per engine per confirmed death (from whichever goroutine's budget
// exhaustion confirmed it). It is onLinkFailed's rank-level sibling:
// outstanding work toward the dead rank fails in bounded time with the
// wrapped ErrRankFailed, counter waiters and Select cases observe the
// failure (as EvFault naming the dead rank), and —
// before the flight recorder snapshots the postmortem — the replication
// layer reacts (the dead rank's buddy starts the rebuild onto a spare;
// a rank whose buddy died flushes its deferred completions).
func (e *Engine) onRankDead(dead int, at vtime.Time, cause error) {
	err := fmt.Errorf("core: rank %d declared dead (%v): %w", dead, cause, ErrRankFailed)
	if e.recordSticky(e.failedRanks, dead, fault{err, at}) {
		e.replOnRankDead(dead, at)
		e.failOutstanding(trace.KindRankDeath, dead, at, err)
	}
}

// recordSticky installs f as rank's sticky failure in byRank (failedLinks
// or failedRanks) and, when it is the first of its tier, under AllRanks as
// well. It reports false for a rank that already failed: the fan-out runs
// once.
func (e *Engine) recordSticky(byRank map[int]fault, rank int, f fault) bool {
	e.cmplMu.Lock()
	defer e.cmplMu.Unlock()
	if _, dup := byRank[rank]; dup {
		return false
	}
	byRank[rank] = f
	if _, later := byRank[AllRanks]; !later {
		byRank[AllRanks] = f
	}
	return true
}

// failOutstanding is the ordered tail of every failure fan-out
// (onLinkFailed, onRankDead, failEngine), run once the caller has recorded
// the sticky error: note → AutoDump → fail requests and waiters. Evidence
// comes first, so a caller that sees the error — in Complete, an OnDone
// callback or a Select EvFault — and reads FlightRecorder().Dumps() finds
// the postmortem already written. kind is the event kind noted, and its
// name the postmortem's reason. rank selects the victims — requests,
// pending batches and confirmation waiters toward that peer; AllRanks
// (engine-fatal) takes every one of them. Target-side waiters are woken
// whatever the rank: collective completion gives up on any degradation.
func (e *Engine) failOutstanding(kind trace.Kind, rank int, at vtime.Time, err error) {
	e.record(kind, at, rank, 0, 0, 0, err)
	e.FlightRecorder().AutoDump(kind.String(), int64(at))
	all := rank == AllRanks
	e.cmplMu.Lock()
	for id, pb := range e.pendingBatches {
		if all || pb.target == rank {
			delete(e.pendingBatches, id) // its members are in the slab
		}
	}
	woken := poke(e.confirmed, rank)
	e.cmplMu.Unlock()

	var ids []uint64
	e.mu.Lock()
	for _, s := range e.slab {
		if r := s.req; r != nil && (all || r.target == rank) {
			ids = append(ids, r.id)
		}
	}
	e.mu.Unlock()
	for _, id := range ids {
		e.settle(id, at, err) // unless answered meanwhile
	}
	e.tgtMu.Lock()
	woken = append(woken, poke(e.applied, AllRanks)...)
	e.tgtMu.Unlock()
	wakeAll(woken, 0, at)
}

// sendProbeAck answers origin's completion probe reqID at virtual time at.
// The answer carries the cumulative applied count, so a probe also feeds
// the origin's confirmation counters.
func (e *Engine) sendProbeAck(origin int, reqID uint64, count int64, at vtime.Time) {
	m := e.newMsg(origin, kProbeAck, 0)
	m.Hdr[hReq] = reqID
	m.Hdr[hCount] = uint64(count)
	e.sendReply(at, m)
}
