// Package portals implements a Portals-3-like communication layer over the
// simulated network, plus the per-rank communication agent the rest of the
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
//     (remote completion), PUT_END/GET_END (target side), and REPLY_END.
//   - Put and Get operations with an optional acknowledgement request.
//
// It also hosts the NIC, which dispatches every arriving message by kind to
// the handlers higher layers (the strawman RMA core, MPI-2 RMA, ARMCI,
// GASNet, the MPI-like runtime) register for their own message kinds. It
// is the paper's "implicit communication thread" as a mechanism, not as a
// host thread: the model charges its cost (the delivery lane, the
// serializer lane), so delivery runs to completion on the sending
// goroutine whenever the NIC is idle. A NIC holds one delivery token; a
// sender that can take it (TryLock, never a blocking Lock) while nothing
// is queued runs the handler right there. Otherwise the message queues for
// the NIC's agent goroutine, which drains the backlog under the same
// token. So a NIC's handlers never run concurrently, and each sender's
// messages run in send order. Unordered networks keep the scrambler and
// always queue for the agent.
//
// A NIC can be configured without hardware ACK generation (HardwareAcks =
// false), modelling networks that can order messages but cannot report
// remote completion; the put acknowledgement then degrades to a software
// echo injected through the target's send path, which is exactly the
// "slight penalty" the paper predicts (experiment E4).
package portals

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"mpi3rma/internal/memsim"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/vtime"
)

// Handler processes one incoming message while its NIC's delivery token is
// held: on the sending goroutine when the NIC was idle, on the NIC agent
// when the message had to queue. Either way no other handler of the same
// NIC runs meanwhile. at is the virtual time the NIC finished delivering
// the message (arrival plus per-message overhead). Handlers must not block
// indefinitely: the token stops every other delivery to the rank. Like
// every sender, a handler must not send while holding a lock some handler
// takes: the send can run the destination's handler on this goroutine.
type Handler func(m *simnet.Message, at vtime.Time)

// Config configures a NIC.
type Config struct {
	// HardwareAcks selects whether the NIC generates put acknowledgements
	// itself (Portals-on-SeaStar behaviour). When false, acknowledgements
	// are software echoes injected through the target's ordinary send
	// path, costing target CPU overhead and injection gap.
	HardwareAcks bool
}

// NIC is one rank's network interface plus its communication agent.
type NIC struct {
	ep  *simnet.Endpoint
	mem *memsim.Memory
	cfg Config

	// token is the delivery token: whoever holds it runs this NIC's
	// handlers. Inline senders only TryLock it, so a reply chain A→B→A
	// holds each NIC's token at most once per stack and cannot deadlock;
	// the agent and Stop Lock it. queued counts messages handed to the
	// delivery queue and not yet dispatched; it falls under the token, so
	// an inline delivery never overtakes a queued one. stopped (guarded by
	// the token) refuses inline delivery once Stop has begun.
	token   sync.Mutex
	queued  atomic.Int64
	stopped bool

	// cpu is the rank's virtual CPU clock: the latest virtual time the
	// rank's user code has observed. Blocking calls advance it.
	cpu vtime.Clock

	mu       sync.Mutex
	handlers map[uint8]Handler
	// pending holds messages that arrived before their kind's handler was
	// registered: rank startup is not synchronized, so a fast origin can
	// have traffic in flight before the target's upper layers attach.
	// Messages park and drain only under the delivery token, and
	// RegisterHandler pokes the agent to deliver a kind's backlog in
	// arrival order.
	pending map[uint8][]*simnet.Message
	mds     []*MD
	table   map[int]*MD // portal index -> MD exposed for remote access

	// wake interrupts the agent's wait on the delivery queue: to drain a
	// backlog RegisterHandler has just made deliverable, or to stop once
	// quit is closed. One channel serves both so the per-message select
	// stays two-way.
	wake chan struct{}
	quit chan struct{}
	done chan struct{}

	// relay is the transmit-side reliability engine (nil until
	// EnableReliability); rx is the always-on receive-side state, touched
	// only under the delivery token. linkFail and retransObs are the
	// optional callbacks the layer above installs (see relay.go).
	relay      atomic.Pointer[relay]
	rx         map[int]*rxLink
	linkFail   atomic.Pointer[func(dst int, at vtime.Time, err error)]
	retransObs atomic.Pointer[func(dst int, rseq uint64, attempt int, at vtime.Time)]

	// SoftAcks counts acknowledgements that had to be sent in software.
	SoftAcks stats.Counter
	// BadReq counts protocol violations observed by this rank (unknown
	// portal index, out-of-bounds access, disallowed operation).
	BadReq stats.Counter
	// Delivered and DeliveredBytes count messages (and their payload bytes)
	// this NIC handed to a handler. Inline counts the arrivals it took on
	// the sending goroutine instead of queueing them for the agent.
	Delivered      stats.Counter
	DeliveredBytes stats.Counter
	Inline         stats.Counter
	// Parked counts messages that arrived before their kind's handler was
	// registered and had to wait in the pending backlog.
	Parked stats.Counter
}

// NewNIC binds a NIC to an endpoint and a rank memory and starts its agent.
func NewNIC(ep *simnet.Endpoint, mem *memsim.Memory, cfg Config) *NIC {
	n := &NIC{
		ep:       ep,
		mem:      mem,
		cfg:      cfg,
		handlers: make(map[uint8]Handler),
		pending:  make(map[uint8][]*simnet.Message),
		table:    make(map[int]*MD),
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	n.registerPortalsHandlers()
	ep.SetInline(n.offer)
	go func() {
		// Label the delivery agent so profiles separate queued deliveries
		// from rank compute (go tool pprof -tagfocus role=nic-agent); a
		// delivery run inline carries its sender's labels.
		pprof.Do(context.Background(), pprof.Labels("rank", strconv.Itoa(ep.ID()), "role", "nic-agent"), func(context.Context) {
			n.agent()
		})
	}()
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

// HardwareAcks reports whether the NIC generates acknowledgements itself.
func (n *NIC) HardwareAcks() bool { return n.cfg.HardwareAcks }

// RegisterHandler installs h for message kind k. Messages of that kind
// that arrived before registration are delivered by the agent, in arrival
// order, shortly after; a later arrival of the kind parks behind them
// until then. Registering a kind twice panics: kinds are statically
// partitioned between layers (see kinds.go).
func (n *NIC) RegisterHandler(k uint8, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.handlers[k]; dup {
		panic(fmt.Sprintf("portals: duplicate handler for kind %d on rank %d", k, n.ep.ID()))
	}
	n.handlers[k] = h
	if len(n.pending[k]) > 0 {
		n.poke()
	}
}

// poke wakes the agent; a wakeup already pending covers this one too.
func (n *NIC) poke() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

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

// Stop terminates the agent goroutine. It waits out a delivery running on
// a sender's goroutine, and no message is delivered inline afterwards.
// Messages still queued are left for the network's Close to discard. Stop
// is idempotent.
func (n *NIC) Stop() {
	n.token.Lock()
	n.stopped = true
	n.token.Unlock()
	select {
	case <-n.quit:
	default:
		close(n.quit)
	}
	n.poke()
	<-n.done
	if r := n.relay.Load(); r != nil {
		<-r.done
	}
}

// offer is the endpoint's inline hook: run m's delivery on the sending
// goroutine if the token is free, nothing is queued ahead of it and the
// NIC is not stopping; otherwise count it queued and let simnet hand it to
// the agent. Counting before the push keeps a later inline offer from
// slipping past it. The deferred unlock keeps a handler that panics into
// its sender from leaving the NIC undeliverable.
func (n *NIC) offer(m *simnet.Message) bool {
	if !n.token.TryLock() {
		n.queued.Add(1)
		return false
	}
	defer n.token.Unlock()
	if n.queued.Load() != 0 || n.stopped {
		n.queued.Add(1)
		return false
	}
	n.Inline.Inc()
	n.dispatch(m)
	return true
}

// agent is the rank's communication thread for the backlog: it consumes
// the delivery queue — messages that found the NIC busy — and dispatches by
// kind, under the delivery token. Each delivery reserves the endpoint's
// delivery clock for the per-message overhead, so target-side virtual time
// accrues per message exactly once regardless of which goroutine or layer
// handles it.
func (n *NIC) agent() {
	defer close(n.done)
	for {
		select {
		case m, ok := <-n.ep.Queue():
			if !ok {
				return
			}
			n.token.Lock()
			if n.ep.Ordered() { // the scrambler's arrivals were never offered
				n.queued.Add(-1)
			}
			n.dispatch(m)
			n.token.Unlock()
		case <-n.wake:
			select {
			case <-n.quit:
				return
			default:
				n.token.Lock()
				n.drainParked()
				n.token.Unlock()
			}
		}
	}
}

// drainParked delivers every parked backlog whose handler has since been
// registered, each in arrival order. Arrivals of a kind keep parking
// behind its backlog until this runs, and both happen only under the
// delivery token, so no arrival overtakes the backlog. Caller holds the
// token.
func (n *NIC) drainParked() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k, backlog := range n.pending {
		h := n.handlers[k]
		if h == nil {
			continue
		}
		delete(n.pending, k)
		n.mu.Unlock()
		for _, m := range backlog {
			n.deliver(h, m)
		}
		n.mu.Lock()
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
// the owning layer has not registered the kind yet (or is still draining
// a backlog).
func (n *NIC) dispatchKind(m *simnet.Message) {
	n.mu.Lock()
	h := n.handlers[m.Kind]
	if h == nil || len(n.pending[m.Kind]) > 0 {
		n.pending[m.Kind] = append(n.pending[m.Kind], m)
		n.mu.Unlock()
		n.Parked.Inc()
		return
	}
	n.mu.Unlock()
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
