// Package rma is the public face of the strawman MPI-3 RMA interface
// (paper Section IV), layered over internal/core. It is what examples and
// application code import; the internal packages stay free to refactor.
//
// The shape of the API:
//
//	world := runtime.NewWorld(runtime.Config{Ranks: 4})
//	world.Run(func(p *runtime.Proc) {
//		s := rma.Open(p, rma.WithBatch(16))
//		tm, region := s.Expose(1024)            // no collective window
//		... ship tm.Encode() to the origins ...
//		s.Put(src, n, rma.Byte, tm, disp)        // nonblocking put
//		s.Put(src, n, rma.Byte, tm, disp,
//			rma.WithOrdering(), rma.WithNotify()) // per-op attributes
//		s.Complete(tm.Owner)                     // RMA_complete
//	})
//
// Per-operation attributes — the paper's central design point — are
// functional options (WithOrdering, WithAtomic, WithRemoteComplete,
// WithBlocking, WithNotify). Session-level behaviour (operation batching,
// the atomicity mechanism, engine-wide default attributes) is configured by
// options passed to Open.
//
// Transfers default to a symmetric layout: the count and datatype given
// for the origin buffer also describe the target side. Use
// WithTargetLayout to transfer into a different (e.g. strided) target
// layout.
package rma

import (
	"fmt"
	"io"

	"mpi3rma/internal/checker"
	"mpi3rma/internal/core"
	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/trace"
)

// Re-exported core types. TargetMem is the paper's target_mem object;
// Request tracks one nonblocking operation; Region names local memory.
type (
	TargetMem = core.TargetMem
	Request   = core.Request
	Region    = memsim.Region
	Type      = datatype.Type
	AccOp     = core.AccOp
)

// Semantic-checker types (see WithChecker): Checker collects Conflicts —
// pairs of overlapping accesses no synchronization separates.
type (
	Checker  = checker.Checker
	Conflict = checker.Conflict
)

// Fault-injection and reliable-delivery types (see WithFaults /
// WithRetryPolicy): a FaultPlan describes, per directed link and window
// of virtual time, how the simulated wire misbehaves; a RetryPolicy tunes
// the relay that survives it.
type (
	FaultPlan   = simnet.FaultPlan
	LinkFaults  = simnet.LinkFaults
	LinkKey     = simnet.LinkKey
	Partition   = simnet.Partition
	Burst       = simnet.Burst
	RankKill    = simnet.RankKill
	RetryPolicy = portals.RetryPolicy
)

// Predefined datatypes.
var (
	Byte    = datatype.Byte
	Int32   = datatype.Int32
	Int64   = datatype.Int64
	Float32 = datatype.Float32
	Float64 = datatype.Float64
)

// Derived-datatype constructors (MPI-style layouts for strided and
// irregular transfers).
var (
	Contiguous = datatype.Contiguous
	Vector     = datatype.Vector
	Indexed    = datatype.Indexed
	Struct     = datatype.Struct
)

// Field describes one member of a Struct datatype.
type Field = datatype.Field

// Accumulate combining operations.
const (
	Replace = core.AccReplace
	Sum     = core.AccSum
	Prod    = core.AccProd
	Min     = core.AccMin
	Max     = core.AccMax
)

// Sentinel errors; every error the library returns wraps one of these
// (classify with errors.Is — see internal/core/errors.go for the taxonomy).
var (
	ErrBadHandle = core.ErrBadHandle
	ErrBounds    = core.ErrBounds
	ErrType      = core.ErrType
	ErrEpoch     = core.ErrEpoch
	// ErrLinkFailed marks graceful degradation: a reliable-delivery retry
	// budget ran out, the affected requests and Complete* calls fail with
	// it (wrapped), and Session.Err() reports it sticky.
	ErrLinkFailed = core.ErrLinkFailed
	// ErrApplyFault marks a recovered target-side apply panic (a sharded
	// apply caught it): the session survives but its requests and waits
	// fail with it, and Session.Err() reports it sticky.
	ErrApplyFault = core.ErrApplyFault
	// ErrRankFailed marks a peer declared dead by the failure detector
	// (rank-kill fault injection): requests and Complete* calls addressing
	// the dead rank fail with it, ops to live peers keep completing, and
	// Session.Err() reports it sticky. Disjoint from ErrLinkFailed — a
	// flaky link is not a dead peer.
	ErrRankFailed = core.ErrRankFailed
)

// AllRanks, passed as the target of Complete or Order, covers every rank.
const AllRanks = core.AllRanks

// Re-exported request-completion helpers.
var (
	WaitAll = core.WaitAll
	WaitAny = core.WaitAny
	TestAll = core.TestAll
)

// DecodeTargetMem reverses TargetMem.Encode for descriptors shipped
// through ordinary messages.
var DecodeTargetMem = core.DecodeTargetMem

// Session is one rank's handle on the RMA library. Obtain it with Open;
// it is safe to call Open repeatedly (options are honoured by the first
// call of the rank).
type Session struct {
	eng  *core.Engine
	proc *runtime.Proc
	// comm scopes the collective and rank-numbered calls (the world unless
	// the session is a view from On). Transfers address a descriptor's
	// owner by world rank and never consult it.
	comm *runtime.Comm
}

// Open attaches the RMA engine to the calling rank and returns its
// session. Session-level options (WithBatch, WithAtomicity, and attribute
// options as engine-wide defaults) are honoured only by the rank's first
// Open.
func Open(p *runtime.Proc, opts ...SessionOption) *Session {
	cfg := buildSessionConfig(opts)
	s := &Session{
		eng:  core.Attach(p, cfg.engineOptions()),
		proc: p,
		comm: p.Comm(),
	}
	if cfg.metrics {
		s.eng.EnableTelemetry(nil)
	}
	if cfg.events {
		s.eng.EnableEvents(cfg.eventsCap)
	}
	if cfg.tracing && s.eng.Tracer() == nil {
		s.eng.SetTracer(trace.New(cfg.traceCap))
	}
	if cfg.flight {
		s.eng.EnableFlightRecorder(telemetry.FlightConfig{Dir: cfg.flightDir})
	}
	if cfg.checker {
		s.eng.AddAccessRecorder(checker.ForWorld(p.NIC().Endpoint().Network()))
	}
	if cfg.faults != nil {
		p.NIC().Endpoint().Network().SetFaults(cfg.faults)
	}
	if cfg.replicate {
		// Session-only, and SPMD like the rest: every rank (spares
		// included) arms replication before exposing protected regions.
		// A world too small to hold a buddy is a programming error.
		if err := s.eng.EnableReplication(); err != nil {
			panic(err)
		}
	}
	if cfg.faults != nil || cfg.retry != nil {
		var pol RetryPolicy
		if cfg.retry != nil {
			pol = *cfg.retry
		}
		if pol.Seed == 0 && cfg.faults != nil {
			// One seed reproduces the whole chaos run: scrambler, fault
			// draws, and retry jitter all derive from it.
			pol.Seed = cfg.faults.Seed
		}
		p.NIC().EnableReliability(pol)
	}
	return s
}

// On returns a view of the session bound to comm: ExposeCollective,
// Exchange and CompleteCollective run over comm's members, and the ranks
// given to Complete, Order and the Select cases are ranks of comm. The
// view shares the rank's engine, so transfers and everything else behave
// exactly as on s.
func (s *Session) On(comm *runtime.Comm) *Session {
	v := *s
	v.comm = comm
	return &v
}

// Err reports the session's sticky failure: non-nil once any link's
// reliable-delivery retry budget has been exhausted (see ErrLinkFailed)
// or a sharded apply has panicked (see ErrApplyFault). A
// link-degraded session keeps working toward the surviving ranks;
// requests and Complete* calls addressing the failed target return the
// error. An apply fault poisons the whole session.
func (s *Session) Err() error { return s.eng.Err() }

// Proc returns the owning simulated process.
func (s *Session) Proc() *runtime.Proc { return s.proc }

// Buddy returns the rank currently mirroring this rank's exposures
// (ok=false when WithReplication is off or the buddy is down awaiting
// a rebuild).
func (s *Session) Buddy() (int, bool) { return s.eng.Buddy() }

// AwaitRebuilt blocks until a spare rank has fully rebuilt the dead
// rank's replicated regions and returns the spare's world rank — the
// re-targeting hook an origin uses after a Put or Complete fails with
// ErrRankFailed. Descriptors move verbatim: the spare re-exposes every
// region at its original handle, so tm2 := tm; tm2.Owner = spare
// addresses the rebuilt bytes. It errors when no rebuild can ever
// complete (the world has no spare left).
func (s *Session) AwaitRebuilt(dead int) (int, error) {
	return s.proc.World().Members().AwaitRebuilt(dead)
}

// Engine exposes the underlying core engine — the escape hatch for
// facilities the façade does not wrap (active messages, tracing, derived
// statistics).
func (s *Session) Engine() *core.Engine { return s.eng }

// Metrics returns this rank's telemetry registry, enabling it on first
// use (so callers need not have passed WithMetrics to Open). Counters in
// the registry alias the engine's live counters; snapshot with
// Metrics().Snapshot().
func (s *Session) Metrics() *telemetry.Registry {
	return s.eng.EnableTelemetry(nil)
}

// Tracer returns the session's protocol event ring, or nil when tracing
// was never enabled (see WithTracing).
func (s *Session) Tracer() *trace.Ring {
	return s.eng.Tracer()
}

// Checker returns the world-shared semantic checker, or nil when
// WithChecker was never passed to an Open on this rank. Every rank that
// enabled checking sees the same instance, so any rank can collect the
// world's conflicts after a CompleteCollective.
func (s *Session) Checker() *checker.Checker {
	for _, r := range s.eng.AccessRecorders() {
		if c, ok := r.(*checker.Checker); ok {
			return c
		}
	}
	return nil
}

// DumpTimeline writes this rank's recorded protocol events to w in
// chronological virtual-time order, one event per line. It errors if the
// session has no tracer.
func (s *Session) DumpTimeline(w io.Writer) error {
	t := s.eng.Tracer()
	if t == nil {
		return fmt.Errorf("rma: session has no tracer (open with rma.WithTracing): %w", ErrBadHandle)
	}
	_, err := io.WriteString(w, t.Timeline())
	return err
}

// FlightRecorder returns this session's postmortem flight recorder, or
// nil when WithFlightRecorder was never passed to an Open on this rank.
func (s *Session) FlightRecorder() *telemetry.FlightRecorder {
	return s.eng.FlightRecorder()
}

// Health reports this rank's point-in-time health — sticky errors, link
// and retry state, per-shard task counts, completion-queue depth, blocked
// waits — the report every postmortem embeds. It is safe to call from any
// goroutine.
func (s *Session) Health() telemetry.HealthReport { return s.eng.Health() }

// CriticalPath merges every traced rank's protocol events into one
// cross-rank timeline and decomposes each operation span into named
// stages (issue-queue, pack, wire, retransmit-stall, shard-queue, apply,
// ack-notify, completion-wakeup — see telemetry.StageOrder). Ranks
// without a tracer simply contribute no events; it errors if this rank
// itself has no tracer. When this session has a metrics registry, the
// per-span stage durations are also published as latency.stage.*
// histograms.
func (s *Session) CriticalPath() (*telemetry.CriticalPathReport, error) {
	if s.eng.Tracer() == nil {
		return nil, fmt.Errorf("rma: session has no tracer (open with rma.WithTracing): %w", ErrBadHandle)
	}
	world := s.proc.World()
	perRank := make(map[int][]trace.Event)
	for r := 0; r < world.Size(); r++ {
		eng := core.Attached(world.Proc(r))
		if eng == nil {
			continue
		}
		if ring := eng.Tracer(); ring != nil {
			perRank[r] = ring.Snapshot()
		}
	}
	rep := telemetry.AnalyzeCriticalPath(trace.MergeRanks(perRank))
	if reg := s.eng.Metrics(); reg != nil {
		rep.Observe(reg)
	}
	return rep, nil
}

// DumpCriticalPath writes the cross-rank critical-path stage breakdown
// to w as an aligned table. It errors if the session has no tracer.
func (s *Session) DumpCriticalPath(w io.Writer) error {
	rep, err := s.CriticalPath()
	if err != nil {
		return err
	}
	return rep.WriteText(w)
}

// Expose allocates size bytes and exposes them as a target_mem object.
// Nothing collective happens: the owner alone creates the exposure
// (requirement 1) and ships the descriptor to whoever should access it.
func (s *Session) Expose(size int) (TargetMem, Region) {
	return s.eng.ExposeNew(size)
}

// ExposeRegion exposes existing memory (heap/stack association).
func (s *Session) ExposeRegion(r Region) TargetMem {
	return s.eng.Expose(r)
}

// ExposeCollective is the collective-allocation convenience: every rank
// contributes size bytes and receives all ranks' descriptors.
func (s *Session) ExposeCollective(size int) ([]TargetMem, Region, error) {
	return s.eng.ExposeCollective(s.comm, size)
}

// Exchange is the collective descriptor all-gather behind ExposeCollective,
// for memory exposed some other way (ExposeRegion): every rank contributes
// tm and receives all ranks' descriptors, indexed by rank.
func (s *Session) Exchange(tm TargetMem) ([]TargetMem, error) {
	return core.ExchangeTargetMem(s.comm, tm)
}

// Retract withdraws an exposure this rank owns.
func (s *Session) Retract(tm TargetMem) error { return s.eng.Retract(tm) }

// Put transfers count elements of dt from the origin region into dst at
// byte displacement tdisp (MPI_RMA_put). Nonblocking by default: the
// returned request completes when the origin buffer is reusable (or, with
// WithRemoteComplete, when the data is applied at the target).
func (s *Session) Put(origin Region, count int, dt Type, dst TargetMem, tdisp int, opts ...OpOption) (*Request, error) {
	c := buildOpConfig(opts)
	tcount, tdt := c.targetLayout(count, dt)
	return s.eng.Put(origin, count, dt, dst, tdisp, tcount, tdt, dst.Owner, s.proc.Comm(), c.attrs)
}

// PutNotify is Put with the Notify attribute: the target reports the
// operation's application on a delivery counter, feeding Complete's
// probe-free fast path. WithNotify is implied and changes nothing here.
func (s *Session) PutNotify(origin Region, count int, dt Type, dst TargetMem, tdisp int, opts ...OpOption) (*Request, error) {
	c := buildOpConfig(opts)
	tcount, tdt := c.targetLayout(count, dt)
	return s.eng.PutNotify(origin, count, dt, dst, tdisp, tcount, tdt, dst.Owner, s.proc.Comm(), c.attrs)
}

// Get transfers count elements of dt from src at byte displacement tdisp
// into the origin region (MPI_RMA_get). The request completes when the
// data has landed; check Request.Err for target-side failures. Get ignores
// WithRemoteComplete (landing at the origin already implies the target
// read) and WithNotify (the data reply already feeds the delivery
// counters).
func (s *Session) Get(origin Region, count int, dt Type, src TargetMem, tdisp int, opts ...OpOption) (*Request, error) {
	c := buildOpConfig(opts)
	tcount, tdt := c.targetLayout(count, dt)
	return s.eng.Get(origin, count, dt, src, tdisp, tcount, tdt, src.Owner, s.proc.Comm(), c.attrs)
}

// Accumulate combines count elements of dt from the origin region into dst
// with op (MPI_RMA_xfer with an accumulate optype).
func (s *Session) Accumulate(op AccOp, origin Region, count int, dt Type, dst TargetMem, tdisp int, opts ...OpOption) (*Request, error) {
	c := buildOpConfig(opts)
	tcount, tdt := c.targetLayout(count, dt)
	return s.eng.Accumulate(op, origin, count, dt, dst, tdisp, tcount, tdt, dst.Owner, s.proc.Comm(), c.attrs)
}

// AccumulateAxpy performs target = scale*origin + target over
// floating-point elements (the ARMCI-style daxpy accumulate).
func (s *Session) AccumulateAxpy(scale float64, origin Region, count int, dt Type, dst TargetMem, tdisp int, opts ...OpOption) (*Request, error) {
	c := buildOpConfig(opts)
	tcount, tdt := c.targetLayout(count, dt)
	return s.eng.AccumulateAxpy(scale, origin, count, dt, dst, tdisp, tcount, tdt, dst.Owner, s.proc.Comm(), c.attrs)
}

// FetchAdd atomically adds delta to the int64 at tm+tdisp, returning the
// previous value (the unconditional read-modify-write of Section V).
//
// Of the options, the read-modify-write calls (FetchAdd, FetchWord,
// CompareSwap) honour only the Ordering attribute (WithOrdering, or the
// part of WithStrictDebug that implies it). They ignore WithAtomic (always
// atomic), WithBlocking (always block for the old value),
// WithRemoteComplete (the old value proves remote application), WithNotify
// (the reply already feeds the delivery counters) and WithTargetLayout
// (they address one 8-byte word).
func (s *Session) FetchAdd(tm TargetMem, tdisp int, delta int64, opts ...OpOption) (int64, error) {
	c := buildOpConfig(opts)
	return s.eng.FetchAdd(tm, tdisp, delta, tm.Owner, s.proc.Comm(), c.attrs)
}

// FetchWord atomically reads the int64 at tm+tdisp — the read half of the
// read-modify-write family. Unlike FetchAdd with a zero delta it mutates
// nothing at the target, so it triggers no replication traffic and is the
// right primitive for polling a remote lock/version word or a queue
// sequence number. It ignores the same options as FetchAdd.
func (s *Session) FetchWord(tm TargetMem, tdisp int, opts ...OpOption) (int64, error) {
	c := buildOpConfig(opts)
	return s.eng.FetchWord(tm, tdisp, tm.Owner, s.proc.Comm(), c.attrs)
}

// CompareSwap atomically compares the int64 at tm+tdisp with compare and,
// if equal, stores swap; it returns the previous value. It ignores the
// same options as FetchAdd.
func (s *Session) CompareSwap(tm TargetMem, tdisp int, compare, swap int64, opts ...OpOption) (int64, error) {
	c := buildOpConfig(opts)
	return s.eng.CompareSwap(tm, tdisp, compare, swap, tm.Owner, s.proc.Comm(), c.attrs)
}

// Flush transmits every batched operation still held in this rank's issue
// rings. Complete and Order flush implicitly; call Flush to push pending
// aggregates without synchronizing.
func (s *Session) Flush() { s.eng.Flush() }

// Complete blocks until every operation this rank issued to the given
// target world ranks has been applied there — MPI_RMA_complete. With no
// arguments it covers every rank (the paper's MPI_RMA_ALL_RANKS);
// duplicate targets are collapsed. With notified or batched operations it
// completes on delivery counters without network traffic; otherwise it
// pays one probe round-trip per target.
func (s *Session) Complete(targets ...int) error {
	return s.eng.Complete(s.comm, targets...)
}

// CompleteCollective is the collective completion: every rank calls it; on
// return every operation issued by anyone to anyone has been applied.
func (s *Session) CompleteCollective() error { return s.eng.CompleteCollective(s.comm) }

// Order guarantees operations issued to the given targets before the call
// apply before operations issued after it — MPI_RMA_order, the weak
// (fence-style) synchronization. With no arguments it covers every rank
// (the paper's MPI_RMA_ALL_RANKS).
func (s *Session) Order(targets ...int) error {
	return s.eng.Order(s.comm, targets...)
}

// Event-driven completion (the push side of the completion surface; see
// DESIGN.md §11). An Event is one completion transition — a request
// finishing, an operation applying locally, a target confirming delivery
// or going quiescent, a link or apply fault — stamped with its
// deterministic virtual time. A CompletionQueue delivers them in
// publication order; SelectCase arms a Session.Select call.
type (
	Event           = core.Event
	EventKind       = core.EventKind
	CompletionQueue = core.CompletionQueue
	SelectCase      = core.SelectCase
)

// Event kinds (see the core.EventKind constants for full semantics).
const (
	EvRequestDone = core.EvRequestDone
	EvDelivery    = core.EvDelivery
	EvConfirm     = core.EvConfirm
	EvQuiescent   = core.EvQuiescent
	EvFault       = core.EvFault
)

// Select-case constructors: OnRequest fires when a request completes;
// OnApplied when this rank has applied at least count operations from an
// origin rank (the target-side arm a consumer of notified puts waits
// on); OnConfirmed when a target has confirmed at least count of this
// rank's operations; OnQuiescent when a target has confirmed everything
// issued to it so far (the moment Complete(target) would return without
// waiting).
var (
	OnRequest   = core.OnRequest
	OnApplied   = core.OnApplied
	OnConfirmed = core.OnConfirmed
	OnQuiescent = core.OnQuiescent
)

// Events returns the session's completion queue, installing one with the
// default capacity on first use (like Metrics; pass WithEvents to Open to
// size it). Every completion transition of this rank is published to the
// queue: drain with Poll (non-blocking) or Wait (blocking). The queue is
// bounded and never blocks the engine — when the consumer falls behind,
// new events are dropped and counted in the events.dropped counter
// (Dropped on the queue); the underlying counters remain exact, so a
// dropped event means a lost wakeup hint, never lost completion state.
func (s *Session) Events() *CompletionQueue {
	return s.eng.EnableEvents(0)
}

// Select blocks until any of the cases fires, returning the index of the
// winning case and its event — the any-of multiplexer of the event-driven
// surface, variadic like Complete and Order. The rank's virtual clock
// advances to the winning event's time (Wait semantics). Validation
// failures (no cases, a nil request, a rank out of range) return an error
// wrapping ErrBadHandle; asynchronous failures arrive as events instead:
// EvRequestDone with Err set, or EvFault when a link dies or the apply
// pipeline faults while a counter case is armed.
func (s *Session) Select(cases ...SelectCase) (int, Event, error) {
	return s.eng.Select(s.comm, cases...)
}
