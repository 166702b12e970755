package core

import (
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"mpi3rma/internal/lockrank"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
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
	kFailure   = portals.KindCoreBase + 8  // a failure this rank posts itself (never on the wire)
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

// Engine is one rank's strawman RMA engine. Obtain it with Attach; there
// is exactly one per rank (it owns the rank's core message handlers).
type Engine struct {
	proc *runtime.Proc
	opts Options
	// quarantine poisons every consumed frame and keeps none (frame.go):
	// the recycle-safety test sets it so a stale touch cannot hide behind
	// a reuse.
	quarantine bool

	// mu is the engine's one lock, for what the owning rank shares with
	// the goroutines that deliver to it (DESIGN.md §5 has the table): the
	// origin side, the sticky failures and the applied watermarks.
	mu      lockrank.Mutex
	tmemSeq uint64
	slab    []*reqSlot      // requests a frame completes, by slot (request.go)
	free    []int32         // free slots of slab
	reqSeq  uint64          // the last request or batch id's sequence number
	loose   []atomic.Uint64 // per target: requests unobserved and uncovered (request.go)
	targets []originTarget  // per target, by world rank

	// Read-mostly tables, written under mu (table): the exposures, which
	// the token holder reads on every apply, the per-communicator default
	// attributes every issue reads, and the active-message handlers.
	exps  table[uint64, *exposure]
	comms table[uint64, Attr]
	am    table[uint64, AMHandler]

	// Origin-side completion state. confirmed[t] is the watermark of
	// target t's reports (notifications, acks, replies, probe answers),
	// indexed by world rank and sized once at Attach: the highest
	// cumulative applied-operation count t has reported back, the virtual
	// arrival time of that report, and the calls waiting on it (see
	// watermark.go). pendingBatches routes batch notifications to the
	// remote-completion requests of the batch's member operations.
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

	// Target-side state under mu. applied[o] is the delivery watermark of
	// origin o, indexed like confirmed: what this rank has applied from o,
	// the virtual time of the latest application, and who waits on it —
	// local calls and o's parked completion probes alike. lastApplied is
	// the latest application from anyone, the stamp collective completion
	// returns.
	lastApplied vtime.Time
	applied     []watermark
	slots       []*wakeSlot // wake slots blocked calls let go of (watermark.go)

	// Token-only state, which only the delivery token's holder touches
	// (AssertToken): each origin's early ordered arrivals, its apply lane
	// for non-atomic updates, and the coarse-lock serializer's lane.
	reorder    []portals.Stream[*applyOp]
	lanes      []vtime.Clock
	atomicLane vtime.Clock

	// spares are the frames that came home, for the next messages of a
	// recycled kind (frame.go).
	spares  spares
	doneReq Request // what every successful blocking call returns (AttrBlocking)

	lock   *serializer.LockState
	applyQ *serializer.ApplyQueue
	progQ  *serializer.ProgressQueue
	// grantLock is sendGrant bound once, so a queued lock request costs
	// its waiter entry and nothing more.
	grantLock func(origin int, reqID uint64, at vtime.Time)
	// bell is every wake slot's bell; under the progress serializer a
	// deferred apply rings it too (wait, scheduleApply).
	bell *runtime.Bell

	// Sharded apply state (nil when Options.ApplyShards <= 1; see
	// shard.go): one set of telemetry cells per shard, and the modelled
	// apply lanes they share.
	shards     []shardCells
	shardLanes []vtime.WorkLane

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
	hookMu lockrank.Plain

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
	FramesReused    stats.Counter // frames of a recycled kind taken from the spares
	FramesAllocated stats.Counter // frames of a recycled kind allocated: the spares were empty
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
			mu:             lockrank.Mutex{Rank: lockrank.Engine},
			bell:           p.NewBell(),
			opts:           opts.withDefaults(),
			targets:        make([]originTarget, p.World().TotalRanks()),
			loose:          make([]atomic.Uint64, p.World().TotalRanks()),
			confirmed:      make([]watermark, p.World().TotalRanks()),
			pendingBatches: make(map[uint64]*pendingBatch),
			failedLinks:    make(map[int]fault),
			failedRanks:    make(map[int]fault),
			applied:        make([]watermark, p.World().TotalRanks()),
			reorder:        make([]portals.Stream[*applyOp], p.World().TotalRanks()),
			lanes:          make([]vtime.Clock, p.World().TotalRanks()),
			lock:           serializer.NewLockState(),
		}
		for i := range e.targets {
			e.targets[i].ring.max = e.opts.BatchOps
		}
		e.doneReq.e, e.doneReq.done = e, true
		e.grantLock = e.sendGrant
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
		nic.RegisterHandler(kRMWReply, e.handleRMWReply)
		nic.RegisterHandler(kNotify, e.handleNotify)
		nic.RegisterHandler(kReplExpose, e.handleReplExpose)
		nic.RegisterHandler(kReplUpdate, e.handleReplUpdate)
		nic.RegisterHandler(kReplAck, e.handleReplAck)
		nic.RegisterHandler(kRebuild, e.handleRebuild)
		nic.RegisterHandler(kRebuildDone, e.handleRebuildDone)
		nic.RegisterHandler(kPing, e.handlePing)
		nic.RegisterHandler(kFailure, e.handleFailure)
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
	e.comms.set(comm.ID(), attrs, false)
}

// effectiveAttrs folds the per-call attributes with the communicator and
// engine defaults.
func (e *Engine) effectiveAttrs(comm *runtime.Comm, attrs Attr) Attr {
	return attrs | e.comms.get(comm.ID()) | e.opts.DefaultAttrs
}

// table is a read-mostly map published whole: a read is one atomic load
// and no lock, a write (under e.mu) publishes a changed copy.
type table[K comparable, V any] struct{ p atomic.Pointer[map[K]V] }

func (t *table[K, V]) get(k K) (v V) {
	if m := t.p.Load(); m != nil {
		v = (*m)[k]
	}
	return v
}

// set publishes a copy of t with k mapped to v, or without k when drop.
func (t *table[K, V]) set(k K, v V, drop bool) {
	next := make(map[K]V)
	if m := t.p.Load(); m != nil {
		maps.Copy(next, *m)
	}
	next[k] = v
	if drop {
		delete(next, k)
	}
	t.p.Store(&next)
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
// sharded, serialized), funnels through here under mu.
func (e *Engine) noteApplied(src int, at vtime.Time) int64 {
	e.OpsApplied.Inc()
	e.mu.Lock()
	count := e.applied[src].count + 1
	var wbuf [4]*waiter
	var pbuf [4]probe
	ready, answer := e.applied[src].raise(count, at, wbuf[:0], pbuf[:0])
	if at > e.lastApplied {
		e.lastApplied = at
	}
	e.mu.Unlock()
	wakeAll(ready)
	for _, pr := range answer {
		e.sendProbeAck(pr.origin, pr.reqID, count, vtime.Later(pr.arrival, at))
	}
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
		e.postFailure(trace.KindLinkFailed, dst, at)
	}
}

// onRankDead is the membership service's death callback, invoked exactly
// once per engine per confirmed death (from whichever goroutine's budget
// exhaustion confirmed it). It is onLinkFailed's rank-level sibling:
// outstanding work toward the dead rank fails in bounded time with the
// wrapped ErrRankFailed, counter waiters and Select cases observe the
// failure (as EvFault naming the dead rank), the replication layer reacts
// and the coarse lock drops the dead rank (handleFailure).
func (e *Engine) onRankDead(dead int, at vtime.Time, cause error) {
	err := fmt.Errorf("core: rank %d declared dead (%v): %w", dead, cause, ErrRankFailed)
	if e.recordSticky(e.failedRanks, dead, fault{err, at}) {
		e.postFailure(trace.KindRankDeath, dead, at)
	}
}

// recordSticky installs f as rank's sticky failure in byRank (failedLinks
// or failedRanks) and, when it is the first of its tier, under AllRanks as
// well. It reports false for a rank that already failed: the fan-out runs
// once.
func (e *Engine) recordSticky(byRank map[int]fault, rank int, f fault) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := byRank[rank]; dup {
		return false
	}
	byRank[rank] = f
	if _, later := byRank[AllRanks]; !later {
		byRank[AllRanks] = f
	}
	return true
}

// postFailure hands this rank's delivery token the failure of rank (of
// the engine itself for AllRanks) that kind names, declared at virtual
// time at: a frame this rank posts itself, never on the wire. Its caller
// has recorded the sticky error, so new issues already fail fast, and the
// frame carries nothing else.
func (e *Engine) postFailure(kind trace.Kind, rank int, at vtime.Time) {
	me := e.proc.Rank()
	m := &simnet.Message{Src: me, Dst: me, Kind: kFailure, ArriveAt: at}
	m.Hdr[hHandle] = uint64(rank)
	m.Hdr[hMeta] = uint64(kind)
	e.proc.NIC().Post(m)
}

// handleFailure is the one fan-out of every failure (onLinkFailed,
// onRankDead, failEngine), run under the delivery token at the virtual
// time the failure was declared: one cut in delivery order, after every
// frame delivered before it. A death first reaches the replication layer,
// so the postmortem names the promotion; then note → AutoDump → fail
// requests and waiters → evict the dead rank from the coarse lock.
// Evidence comes first, so a caller that the failure wakes — in Complete,
// an OnDone callback or a Select EvFault — and that reads
// FlightRecorder().Dumps() finds the postmortem already written. The failed rank selects the victims —
// requests, pending batches and confirmation waiters toward that peer;
// AllRanks (engine-fatal) takes every one of them. Target-side waiters are
// woken whatever the rank: collective completion gives up on any
// degradation.
func (e *Engine) handleFailure(m *simnet.Message, _ vtime.Time) {
	kind, rank, at := trace.Kind(m.Hdr[hMeta]), int(m.Hdr[hHandle]), m.ArriveAt
	e.mu.Lock()
	err := e.applyErr.err
	switch kind {
	case trace.KindRankDeath:
		err = e.failedRanks[rank].err
	case trace.KindLinkFailed:
		err = e.failedLinks[rank].err
	}
	e.mu.Unlock()
	if kind == trace.KindRankDeath {
		e.replOnRankDead(rank, at)
	}
	e.record(kind, at, rank, 0, 0, 0, err)
	e.FlightRecorder().AutoDump(kind.String(), int64(at))
	all := rank == AllRanks
	var ids []uint64
	e.mu.Lock()
	for id, pb := range e.pendingBatches {
		if all || pb.target == rank {
			delete(e.pendingBatches, id) // its members are in the slab
		}
	}
	woken := poke(e.confirmed, rank)
	woken = append(woken, poke(e.applied, AllRanks)...)
	for _, s := range e.slab {
		if r := s.req; r != nil && (all || r.target == rank) {
			ids = append(ids, r.id)
		}
	}
	e.mu.Unlock()
	for _, id := range ids {
		e.settle(id, at, err) // unless answered meanwhile
	}
	wakeAll(woken)
	if kind == trace.KindRankDeath && e.targetUsesCoarseLock() && rank != e.proc.Rank() {
		// Its hold, granted with the unlock-after operation lost with it,
		// and its queued requests.
		e.lock.Evict(rank, at)
	}
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
