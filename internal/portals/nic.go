// Package portals implements a Portals-3-like communication layer over the
// simulated network, plus the per-rank delivery token the rest of the
// stack shares.
//
// The paper's prototype (Section V-A) was "written using the Portals
// communication library" on the Cray XT5, exploiting Portals' event-queue
// mechanism to detect remote completion of a message. This package
// reproduces the pieces the prototype depends on:
//
//   - Memory descriptors (MD) binding a region of a rank's memory for
//     remote access, with an optional event queue.
//   - Event queues (EQ) delivering SEND_END (local completion), ACK
//     (remote completion) and PUT_END (target side).
//   - Put with an optional acknowledgement request.
//
// It also hosts the NIC, which dispatches every arriving message by kind to
// the handlers higher layers (the strawman RMA core, MPI-2 RMA, ARMCI,
// GASNet, the MPI-like runtime) register for their own message kinds. It
// is the paper's "implicit communication thread" as a mechanism, not as a
// host thread: the model charges its cost (the delivery lane, the
// serializer lane), so no goroutine of its own runs it. A NIC holds one
// delivery token and a backlog. A sender that can take the token (TryLock,
// never a blocking Lock) while the backlog is empty runs the handler right
// there; otherwise the message joins the backlog, and whoever holds the
// token drains it before letting go, as in flat combining. So a NIC's
// handlers never run concurrently, and each sender's messages run in send
// order. On unordered networks whichever goroutine releases a message from
// its link's reorder buffer hands it to the same path.
//
// A NIC can be configured without hardware ACK generation (HardwareAcks =
// false), modelling networks that can order messages but cannot report
// remote completion; the put acknowledgement then degrades to a software
// echo injected through the target's send path, which is exactly the
// "slight penalty" the paper predicts (experiment E4).
package portals

import (
	"fmt"
	"sync/atomic"

	"mpi3rma/internal/lockrank"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/vtime"
)

// Handler processes one incoming message while its NIC's delivery token is
// held, on whichever goroutine holds it: the sender's when the NIC was
// idle, otherwise the goroutine that was holding the token and drains the
// backlog. Either way no other handler of the same NIC runs meanwhile. at
// is the virtual time the NIC finished delivering the message (arrival
// plus per-message overhead). Handlers must not block indefinitely: the
// token stops every other delivery to the rank. Like every sender, a
// handler must not send while holding a lock some handler takes: the send
// can run the destination's handler on this goroutine.
type Handler func(m *simnet.Message, at vtime.Time)

// Config configures a NIC.
type Config struct {
	// HardwareAcks selects whether the NIC generates put acknowledgements
	// itself (Portals-on-SeaStar behaviour). When false, acknowledgements
	// are software echoes injected through the target's ordinary send
	// path, costing target CPU overhead and injection gap.
	HardwareAcks bool
}

// NIC is one rank's network interface.
type NIC struct {
	ep  *simnet.Endpoint
	mem *memsim.Memory
	cfg Config

	// token is the delivery token: whoever holds it runs this NIC's
	// handlers, and drains the backlog before letting go (release).
	// Senders only TryLock it, so a reply chain A→B→A holds each NIC's
	// token at most once per stack and cannot deadlock; Stop and
	// RegisterHandler Lock it. queued counts the backlog — an atomic, so
	// the inline path reads it without backlogMu — and an inline delivery
	// never overtakes a backlogged one. stopped (guarded by the token)
	// drops every delivery once Stop has run.
	token   lockrank.Token
	queued  atomic.Int64
	stopped bool

	// backlog holds the messages that found the token taken, oldest at
	// head; it is reset to [:0] whenever it empties, so steady state
	// reuses one array.
	backlogMu lockrank.Plain
	backlog   []*simnet.Message
	head      int

	// cpu is the rank's virtual CPU clock: the latest virtual time the
	// rank's user code has observed. Blocking calls advance it.
	cpu vtime.Clock

	// handlers and pending are guarded by the token: handlers is indexed
	// by kind, and pending holds messages that arrived before their
	// kind's handler was registered — rank startup is not synchronized,
	// so a fast origin can have traffic in flight before the target's
	// upper layers attach.
	handlers [256]Handler
	pending  map[uint8][]*simnet.Message

	mu    lockrank.Plain
	mds   []*MD
	table map[int]*MD // portal index -> MD exposed for remote access

	// relay is the transmit-side reliability engine (nil until
	// EnableReliability); rx is the always-on receive-side state, touched
	// only under the delivery token. linkFail and retransObs are the
	// optional callbacks the layer above installs (see relay.go).
	relay      atomic.Pointer[relay]
	rx         []Stream[*simnet.Message] // by source rank
	linkFail   atomic.Pointer[func(dst int, at vtime.Time, err error)]
	retransObs atomic.Pointer[func(dst int, rseq uint64, attempt int, at vtime.Time)]

	// SoftAcks counts acknowledgements that had to be sent in software.
	SoftAcks stats.Counter
	// BadReq counts protocol violations observed by this rank (unknown
	// portal index, out-of-bounds access, disallowed operation).
	BadReq stats.Counter
	// Delivered and DeliveredBytes count messages (and their payload bytes)
	// this NIC handed to a handler. Inline counts the arrivals it ran on
	// the goroutine that handed them over instead of passing them through
	// the backlog.
	Delivered      stats.Counter
	DeliveredBytes stats.Counter
	Inline         stats.Counter
	// Parked counts messages that arrived before their kind's handler was
	// registered and had to wait in the pending backlog.
	Parked stats.Counter
}

// NewNIC binds a NIC to an endpoint and a rank memory and installs it as
// the endpoint's delivery hook.
func NewNIC(ep *simnet.Endpoint, mem *memsim.Memory, cfg Config) *NIC {
	n := &NIC{
		ep:      ep,
		mem:     mem,
		cfg:     cfg,
		pending: make(map[uint8][]*simnet.Message),
		table:   make(map[int]*MD),
		rx:      make([]Stream[*simnet.Message], ep.Ranks()),
	}
	n.registerPortalsHandlers()
	ep.SetInline(n.offer)
	return n
}

// Rank returns the NIC's rank id.
func (n *NIC) Rank() int { return n.ep.ID() }

// Mem returns the rank's memory.
func (n *NIC) Mem() *memsim.Memory { return n.mem }

// Endpoint returns the underlying network endpoint.
func (n *NIC) Endpoint() *simnet.Endpoint { return n.ep }

// CPU returns the rank's virtual CPU clock.
func (n *NIC) CPU() *vtime.Clock { return &n.cpu }

// Now returns the rank's current virtual time.
func (n *NIC) Now() vtime.Time { return n.cpu.Now() }

// RegisterHandler installs h for message kind k. Messages of that kind
// that arrived before registration are delivered, in arrival order, before
// RegisterHandler returns. It takes the delivery token, waiting out a
// delivery in progress, so it must not be called from a handler of the
// same NIC. Registering a kind twice panics: kinds are statically
// partitioned between layers (see kinds.go).
func (n *NIC) RegisterHandler(k uint8, h Handler) {
	n.token.Lock()
	defer n.release()
	if n.handlers[k] != nil {
		panic(fmt.Sprintf("portals: duplicate handler for kind %d on rank %d", k, n.ep.ID()))
	}
	n.handlers[k] = h
	parked := n.pending[k]
	delete(n.pending, k)
	for _, m := range parked {
		n.deliver(h, m)
	}
}

// AssertToken panics, in race builds, unless the calling goroutine holds
// the delivery token: the layers above call it where they touch state only
// the token orders. what names that state.
func (n *NIC) AssertToken(what string) { n.token.AssertHeld(what) }

// Send injects m at virtual time now and returns its arrival time at the
// target NIC. With the reliable-delivery relay enabled the frame is
// tracked and retransmitted until acknowledged; a send to a failed link
// returns an error wrapping ErrLinkFailed.
func (n *NIC) Send(now vtime.Time, m *simnet.Message) (vtime.Time, error) {
	if r := n.relay.Load(); r != nil {
		return r.send(now, m, false)
	}
	return n.ep.Send(now, m)
}

// SendNIC injects a NIC-generated control message (no origin CPU cost),
// tracked by the relay when enabled. Layers must prefer this over the
// raw Endpoint.SendNIC so their control traffic survives fault plans.
func (n *NIC) SendNIC(at vtime.Time, m *simnet.Message) (vtime.Time, error) {
	if r := n.relay.Load(); r != nil {
		return r.send(at, m, true)
	}
	return n.ep.SendNIC(at, m)
}

// SendAck sends an acknowledgement-class reply (a put's ack, a delivery
// notification) at virtual time at. The NIC generates it, for wire time
// only, when it has hardware acks and observed the deposit itself; when
// software applied the operation, or the NIC cannot acknowledge, it is a
// software echo injected through the CPU send path and counted in SoftAcks.
func (n *NIC) SendAck(at vtime.Time, m *simnet.Message, software bool) (vtime.Time, error) {
	if n.cfg.HardwareAcks && !software {
		return n.SendNIC(at, m)
	}
	n.SoftAcks.Inc()
	return n.Send(at, m)
}

// Post hands m, which this rank addressed to itself, to the delivery token
// as an arrival: it runs in order with the messages before it. It never
// touches the network, so no stamp, count, fault or blackhole reaches it.
func (n *NIC) Post(m *simnet.Message) { n.offer(m) }

// Stop stops delivery. It waits out a delivery in progress and drops the
// backlog and every later arrival. Stop is idempotent.
func (n *NIC) Stop() {
	n.token.Lock()
	n.stopped = true
	n.release()
}

// offer is the endpoint's delivery hook. It runs m on the calling
// goroutine if the token is free, nothing is backlogged and the NIC has
// not stopped; otherwise it appends m to the backlog for the token's
// holder, or takes the token and drains the backlog itself if the holder
// has let go meanwhile. It never blocks. The deferred release keeps a
// handler that panics into its sender from leaving the NIC undeliverable.
func (n *NIC) offer(m *simnet.Message) {
	if n.token.TryLock() {
		if n.queued.Load() == 0 && !n.stopped {
			defer n.release()
			n.Inline.Inc()
			n.dispatch(m)
			return
		}
		n.token.Unlock()
	}
	n.backlogMu.Lock()
	n.backlog = append(n.backlog, m)
	n.queued.Add(1)
	n.backlogMu.Unlock()
	if n.token.TryLock() {
		n.release()
	}
}

// release drains the backlog and gives up the token. Caller holds the
// token. A message appended after the last look but before the unlock
// found the token taken, so its sender left it to the holder: look again
// after unlocking, or it is stranded until the next arrival.
func (n *NIC) release() {
	for {
		n.drain()
		if n.queued.Load() == 0 || !n.token.TryLock() {
			return
		}
	}
}

// drain dispatches the backlog in arrival order — dropping it once the NIC
// has stopped — then unlocks the token, which the caller holds.
func (n *NIC) drain() {
	defer n.token.Unlock()
	for n.queued.Load() != 0 {
		n.backlogMu.Lock()
		m := n.backlog[n.head]
		n.backlog[n.head] = nil
		if n.head++; n.head == len(n.backlog) {
			n.backlog, n.head = n.backlog[:0], 0
		}
		n.queued.Add(-1)
		n.backlogMu.Unlock()
		if !n.stopped {
			n.dispatch(m)
		}
	}
}

// dispatch filters one arriving message through the reliable-delivery
// layer — acks complete inflight frames, tracked frames are checksummed,
// deduplicated and reassembled — before kind dispatch. Reception is
// always on: tracked frames are admitted whether or not this rank
// enabled its own transmit relay. Caller holds the delivery token.
func (n *NIC) dispatch(m *simnet.Message) {
	if m.Kind == KindRelAck {
		if r := n.relay.Load(); r != nil {
			r.handleAck(m)
		}
		return
	}
	if m.RSeq != 0 {
		n.rxAdmit(m)
		return
	}
	n.dispatchKind(m)
}

// dispatchKind routes one admitted message to its handler, parking it if
// the owning layer has not registered the kind yet. Registration drains a
// kind's parked messages under the token, so none is left behind a live
// arrival. Caller holds the delivery token.
func (n *NIC) dispatchKind(m *simnet.Message) {
	h := n.handlers[m.Kind]
	if h == nil {
		n.pending[m.Kind] = append(n.pending[m.Kind], m)
		n.Parked.Inc()
		return
	}
	n.deliver(h, m)
}

// deliver charges delivery on the target NIC's ingress lane — per-message
// overhead plus per-byte DMA cost; all senders share this lane, the
// funnel the Figure 2 workload contends on — then runs the handler.
func (n *NIC) deliver(h Handler, m *simnet.Message) {
	at := n.ep.DeliverLane().Complete(m.ArriveAt, n.ep.Cost().Deliver(len(m.Payload)))
	n.Delivered.Inc()
	n.DeliveredBytes.Add(int64(len(m.Payload)))
	h(m, at)
}
