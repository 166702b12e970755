package trace

// Kind names what an Event reports. The zero Kind is invalid, so a record
// nobody filled in never reads as a real event.
type Kind uint8

// Protocol kinds: the steps of one operation. They carry the operation's
// id and are what spans and the critical-path analyzer are built from.
const (
	KindIssue      Kind = iota + 1 // a singleton operation left the origin
	KindEnqueue                    // a batchable operation joined the origin's issue ring
	KindPack                       // a ring member was packed into an aggregate (links member id to aggregate id)
	KindBatch                      // an aggregate message left the origin
	KindApply                      // the target applied an operation
	KindAck                        // a remote-completion acknowledgement reached the origin
	KindReply                      // a get reply reached the origin
	KindNotify                     // a delivery-counter notification reached the origin
	KindProbe                      // a completion probe reached the target
	KindProbeAck                   // a probe answer reached the origin
	KindComplete                   // Complete established completion toward Peer
	KindFence                      // an Order() stalled the next operation toward Peer
	KindRetransmit                 // the relay resent frame ID to Peer (link-level: not part of any span)

	// Flight kinds: what a postmortem wants from the moments before a
	// fault. Watermark movements and request ends, then the faults, then
	// the recovery steps of the replication layer.
	KindDelivery       // this rank's applied count from Peer moved
	KindConfirm        // Peer's confirmed count at this origin moved
	KindRequestDone    // request ID toward Peer finished (Err if it failed)
	KindLinkFailed     // the retry budget toward Peer ran out
	KindRankDeath      // Peer was confirmed dead
	KindApplyFault     // an apply worker panicked: the engine is failed
	KindReplicaPromote // this buddy replayed dead Peer's replicas onto spare ID
	KindRebuildFrame   // this spare landed region ID of dead Peer
	KindRebuildDone    // this spare holds all of dead Peer's regions (promoter ID)
	KindBuddyLost      // this rank's buddy Peer died; deferred completions flushed
	KindBuddyRebound   // this rank re-mirrored its exposures onto new buddy Peer
	KindNoSpare        // dead Peer could not be rebuilt: the spare pool is empty
	KindSentinelPing   // the progress sentinel probed silent Peer

	NumKinds
)

// Dest says which rings keep a kind. The split is what keeps a traced span
// made of protocol steps only, and a 256-entry flight ring from being
// flushed by them.
type Dest uint8

const (
	// ToTrace marks kinds the protocol tracer keeps.
	ToTrace Dest = 1 << iota
	// ToFlight marks kinds the flight recorder keeps.
	ToFlight
)

// kindInfo is one row of the kind table: everything that depends on the
// kind lives here, so adding a kind is adding a row.
type kindInfo struct {
	name string
	// atTarget is set for kinds recorded by the rank an operation targets,
	// with Peer naming the origin; every other kind is recorded by the
	// rank that issued the operation (or that the event is local to).
	atTarget bool
	// a and b name the integer arguments; "" means unused.
	a, b string
	dest Dest
}

// kinds is indexed by Kind and has a slot for every uint8, so no lookup —
// of the zero Kind, of a number decoded from outside — can be out of range;
// a slot past NumKinds is the empty row, kept by no ring.
var kinds = [256]kindInfo{
	KindIssue:      {name: "issue", a: "bytes", b: "arrive", dest: ToTrace},
	KindEnqueue:    {name: "enqueue", a: "bytes", dest: ToTrace},
	KindPack:       {name: "pack", a: "batch", b: "member", dest: ToTrace},
	KindBatch:      {name: "batch", a: "ops", b: "arrive", dest: ToTrace},
	KindApply:      {name: "apply", atTarget: true, a: "bytes", b: "cost", dest: ToTrace},
	KindAck:        {name: "ack", a: "count", dest: ToTrace},
	KindReply:      {name: "reply", a: "count", b: "bytes", dest: ToTrace},
	KindNotify:     {name: "notify", a: "count", dest: ToTrace},
	KindProbe:      {name: "probe", atTarget: true, a: "threshold", dest: ToTrace},
	KindProbeAck:   {name: "probe-ack", a: "count", dest: ToTrace},
	KindComplete:   {name: "complete", a: "sent", b: "will", dest: ToTrace},
	KindFence:      {name: "fence", a: "sent", b: "will", dest: ToTrace},
	KindRetransmit: {name: "retransmit", a: "attempt", dest: ToTrace | ToFlight},

	KindDelivery:       {name: "delivery", atTarget: true, a: "count", dest: ToFlight},
	KindConfirm:        {name: "confirm", a: "count", dest: ToFlight},
	KindRequestDone:    {name: "request-done", dest: ToFlight},
	KindLinkFailed:     {name: "link-failed", dest: ToFlight},
	KindRankDeath:      {name: "rank-death", dest: ToFlight},
	KindApplyFault:     {name: "apply-fault", dest: ToFlight},
	KindReplicaPromote: {name: "replica-promote", a: "regions", dest: ToFlight},
	KindRebuildFrame:   {name: "rebuild-frame", a: "bytes", dest: ToFlight},
	KindRebuildDone:    {name: "rebuild-done", dest: ToFlight},
	KindBuddyLost:      {name: "buddy-lost", a: "flushed", dest: ToFlight},
	KindBuddyRebound:   {name: "buddy-rebound", a: "regions", dest: ToFlight},
	KindNoSpare:        {name: "no-spare", a: "regions", dest: ToFlight},
	KindSentinelPing:   {name: "sentinel-ping", a: "strikes", dest: ToFlight},
}

// String returns the kind's name, the "cat" of exported events.
func (k Kind) String() string {
	if name := kinds[k].name; name != "" {
		return name
	}
	return "unknown"
}

// AtTarget reports whether the kind is recorded at the operation's target
// with Peer naming the origin. It matters because request ids are
// allocated per origin engine: a span's identity is (origin rank, id), and
// each event must contribute its view of the origin.
func (k Kind) AtTarget() bool { return kinds[k].atTarget }

// Args returns the names of the kind's A and B arguments ("" = unused; no
// kind uses B without A).
func (k Kind) Args() (a, b string) { return kinds[k].a, kinds[k].b }

// Dest returns the rings that keep the kind.
func (k Kind) Dest() Dest { return kinds[k].dest }

// KindByName reverses String for decoding exported events.
func KindByName(name string) (Kind, bool) {
	for k := Kind(1); k < NumKinds; k++ {
		if kinds[k].name == name {
			return k, true
		}
	}
	return 0, false
}
