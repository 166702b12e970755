package rma

import (
	"mpi3rma/internal/core"
	"mpi3rma/internal/serializer"
)

// The option taxonomy is enforced by the compiler:
//
//   - SessionOption configures a Session and is accepted only by Open —
//     batching, the atomicity mechanism, telemetry, replication, the
//     apply shards. Passing one to a transfer call does not compile.
//     Fault plans and retry policies are not session options: they
//     belong to the world (runtime.Config.Faults, runtime.Config.Retry).
//   - OpOption configures a single operation and is accepted only by the
//     transfer calls (Put, Get, Accumulate, FetchAdd, ...). Today that is
//     the per-operation attributes plus WithTargetLayout.
//   - AttrOption is the intersection: the paper's per-operation attributes
//     (WithOrdering, WithAtomic, ...) satisfy both interfaces, because at
//     Open they become the engine-wide defaults of requirement 5 ("most
//     stringent rules while debugging") and on an operation they apply to
//     that transfer alone.

// SessionOption configures a Session at Open. Attribute options
// (AttrOption) are SessionOptions too: at Open they install engine-wide
// default attributes.
type SessionOption interface {
	applySession(*sessionConfig)
}

// OpOption configures a single operation (Put, Get, Accumulate, FetchAdd,
// CompareSwap, ...). Attribute options are OpOptions; WithTargetLayout is
// the one operation-only non-attribute option.
type OpOption interface {
	// applyOp folds the option into c. It takes and returns the config by
	// value so a transfer call's config stays on its stack.
	applyOp(c opConfig) opConfig
}

// AttrOption is a per-operation attribute usable in both positions: as an
// engine-wide default at Open, or on an individual transfer. It is the
// value type WithOrdering, WithRemoteComplete, WithAtomic, WithBlocking,
// WithNotify and WithStrictDebug return. Attributes OR together, so
// repeating one, or adding one WithStrictDebug already implies, changes
// nothing.
type AttrOption core.Attr

func (a AttrOption) applySession(c *sessionConfig) { c.attrs |= core.Attr(a) }
func (a AttrOption) applyOp(c opConfig) opConfig {
	c.attrs |= core.Attr(a)
	return c
}

// sessionOption adapts a config mutator into a SessionOption (the
// constructor return type of every Open-only option).
type sessionOption func(*sessionConfig)

func (f sessionOption) applySession(c *sessionConfig) { f(c) }

// layoutOption is WithTargetLayout's OpOption.
type layoutOption struct {
	tcount int
	tdt    Type
}

func (l layoutOption) applyOp(c opConfig) opConfig {
	c.tcount, c.tdt = l.tcount, l.tdt
	return c
}

// sessionConfig collects everything Open can install.
type sessionConfig struct {
	attrs     core.Attr
	opts      core.Options
	metrics   bool
	tracing   bool
	traceCap  int
	checker   bool
	flight    bool
	flightDir string
	replicate bool
}

// opConfig collects what a single transfer can override.
type opConfig struct {
	attrs  core.Attr
	tcount int
	tdt    Type
}

func buildSessionConfig(opts []SessionOption) sessionConfig {
	var c sessionConfig
	for _, o := range opts {
		o.applySession(&c)
	}
	return c
}

func buildOpConfig(opts []OpOption) opConfig {
	var c opConfig
	for _, o := range opts {
		c = o.applyOp(c)
	}
	return c
}

func (c sessionConfig) engineOptions() core.Options {
	o := c.opts
	o.DefaultAttrs |= c.attrs
	return o
}

// targetLayout resolves the target-side count/datatype: symmetric with the
// origin unless WithTargetLayout overrode it.
func (c opConfig) targetLayout(ocount int, odt Type) (int, Type) {
	if c.tdt != nil {
		return c.tcount, c.tdt
	}
	return ocount, odt
}

// WithOrdering requests the Ordering attribute: operations to the same
// target apply in issue order. Within one atomicity class when batching
// reorders across classes; see DESIGN.md §5.
func WithOrdering() AttrOption { return AttrOption(core.AttrOrdering) }

// WithRemoteComplete requests the RemoteComplete attribute: the request
// completes only once the data is applied at the target, not merely when
// the origin buffer is reusable.
func WithRemoteComplete() AttrOption { return AttrOption(core.AttrRemoteComplete) }

// WithAtomic requests the Atomic attribute: the update is applied through
// the target's serializer so concurrent accumulates from many origins
// do not interleave element-wise.
func WithAtomic() AttrOption { return AttrOption(core.AttrAtomic) }

// WithBlocking makes the call return only when the operation's request
// would complete, and the call allocates nothing to wait. On success it
// returns the session's one shared, already-completed request and a nil
// error: Test is true, Wait returns at once and OnDone runs inline, so
// there is nothing to keep or observe. On failure it returns nil and the
// operation's error, an asynchronous one included — a target-side failure
// such as a Get of unexposed memory (ErrBadHandle), ErrRankFailed,
// ErrLinkFailed. A blocking operation is never loose (LostRequests).
func WithBlocking() AttrOption { return AttrOption(core.AttrBlocking) }

// WithNotify asks the target to report the operation's application on the
// per-origin delivery counter, so a later Complete can finish without a
// probe round-trip (notified completion).
func WithNotify() AttrOption { return AttrOption(core.AttrNotify) }

// WithStrictDebug is the requirement-5 debugging preset: ordered,
// remotely complete, and atomic. Install at Open while debugging, delete
// the option when done — no transfer call changes.
func WithStrictDebug() AttrOption { return AttrOption(core.StrictDebugAttrs) }

// WithTargetLayout transfers into a target-side layout different from the
// origin's (e.g. scattering a contiguous origin buffer into a Vector).
// The type signatures must still match element-wise.
func WithTargetLayout(tcount int, tdt Type) OpOption {
	return layoutOption{tcount, tdt}
}

// WithBatch enables origin-side operation batching: up to maxOps small
// puts/accumulates per target are coalesced into one aggregated wire
// message, amortizing per-message overhead. A batch holds at most
// core.DefaultBatchBytes of payload, and larger operations bypass it.
// Batches flush when full, when a non-batchable operation targets the
// same rank, and at Flush/Order/Complete.
func WithBatch(maxOps int) SessionOption {
	return sessionOption(func(c *sessionConfig) { c.opts.BatchOps = maxOps })
}

// WithAtomicity selects the serializer mechanism backing the Atomic
// attribute: serializer.MechThread, MechCoarseLock, or MechProgress — the
// three implementation strategies of the paper's Figure 2.
func WithAtomicity(m serializer.Mechanism) SessionOption {
	return sessionOption(func(c *sessionConfig) { c.opts.Atomicity = m })
}

// WithApplyShards partitions this rank's exposed memory into n byte-range
// shards, each charging its applies to a modelled apply lane: operations
// from different origins to disjoint ranges overlap in modelled time,
// while spanning and ordered operations route through a designated shard
// and atomic ones through the serializer (DESIGN.md §10). Every apply runs
// as it is delivered, in routing order, so the final bytes equal the
// serial engine's. Each shard has its own lane. The default (0 or 1) is
// the serial engine.
func WithApplyShards(n int) SessionOption {
	return sessionOption(func(c *sessionConfig) { c.opts.ApplyShards = n })
}

// WithMetrics enables the telemetry registry at Open: every engine, NIC
// and network counter becomes readable under its stable dotted name via
// Session.Metrics(). Enabling metrics adds no work to transfer hot paths
// (the registry aliases live counters); only latency histograms are
// recorded in addition. Unlike other session options, metrics can be
// enabled by any Open of the rank, not only the first.
func WithMetrics() SessionOption {
	return sessionOption(func(c *sessionConfig) { c.metrics = true })
}

// WithTracing installs a protocol event ring of the given capacity
// (0 = trace.DefaultCapacity) at Open, feeding Session.DumpTimeline and
// span reconstruction. Like WithMetrics it is honoured by any Open, but
// an already-installed tracer is kept.
func WithTracing(capacity int) SessionOption {
	return sessionOption(func(c *sessionConfig) { c.tracing, c.traceCap = true, capacity })
}

// WithEvents does nothing and ignores capacity. It once installed a
// bounded completion-event queue; completion is now observed only through
// Request.OnDone and Session.Select, which need nothing installed and
// lose nothing. It is kept so code written against the queue compiles.
func WithEvents(capacity int) SessionOption {
	return sessionOption(func(*sessionConfig) {})
}

// WithReplication enables buddy replication at Open: every region this
// rank exposes afterwards is mirrored in-band to its buddy rank
// ((rank+1) mod worldsize), and each mutating operation completes only
// once the buddy has acknowledged its bytes — so a returned Complete
// means the update survives this rank's death. When the failure detector
// declares a rank dead (see the rank-kill schedules of
// runtime.Config.Faults), the buddy
// promotes its replicas onto a spare rank (runtime.Config.Spares) and the
// world resumes; origins re-fetch the spare's descriptors and carry on.
// Metadata cost is O(1) per rank: one buddy binding and a version counter
// per exposed region. Pair it with a world fault plan — without one no
// rank ever dies and the option only adds mirroring traffic. SPMD ranks
// (including spares) should all pass it.
func WithReplication() SessionOption {
	return sessionOption(func(c *sessionConfig) { c.replicate = true })
}

// WithChecker enables the RMA semantic checker at Open: every
// remotely-applied access is recorded as a byte interval on its target
// exposure, and pairs of overlapping accesses not separated by a
// synchronization call (and not both atomic) are reported as conflicts —
// the MPI-3 overlapping-access rules, checked dynamically. The checker is
// shared by all ranks of the world, so cross-rank conflicts are visible;
// read results with Session.Checker(). Like WithMetrics it is honoured by
// any Open of the rank. When not enabled, transfer hot paths pay one
// atomic load and allocate nothing.
func WithChecker() SessionOption {
	return sessionOption(func(c *sessionConfig) { c.checker = true })
}

// WithFlightRecorder enables the postmortem flight recorder at Open: a
// bounded ring of recent protocol milestones (deliveries, confirms,
// retransmissions, faults) that automatically writes a JSON postmortem —
// recent events, per-rank health, sticky errors, retry state, shard
// task counts, metric deltas — into dir the first time a link fails or the
// apply engine faults. An empty dir falls back to the system temp
// directory. Dump on demand with Session.FlightRecorder().DumpFile.
// When not enabled, recorder feed sites pay one atomic load and allocate
// nothing.
func WithFlightRecorder(dir string) SessionOption {
	return sessionOption(func(c *sessionConfig) { c.flight, c.flightDir = true, dir })
}
