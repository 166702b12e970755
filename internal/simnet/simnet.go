// Package simnet simulates the interconnect of a distributed-memory
// machine.
//
// The paper's evaluation ran over the Cray XT5's SeaStar network via the
// Portals library; its discussion (Section III-B) also covers networks
// without message ordering (Quadrics QSNetII/III) and networks without
// remote-completion events. simnet reproduces exactly those axes:
//
//   - Ordered vs unordered delivery per (source, destination) pair. The
//     unordered mode holds each link's messages in a bounded reorder
//     window at the sender and releases them in seeded-random order, as a
//     multi-rail or adaptively-routed network would.
//   - A LogGP-style cost model (latency L, per-message overhead o, gap g,
//     per-byte cost G) that drives the virtual-time account described in
//     DESIGN.md. Every send computes when the message left the origin NIC
//     and when it arrives at the target NIC in virtual time.
//
// simnet moves bytes between endpoints; protocol (acknowledgements, match
// lists, event queues) lives above it in internal/portals.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpi3rma/internal/stats"
	"mpi3rma/internal/vtime"
)

// CostModel is a LogGP-style account of transfer costs, used for the
// virtual-time clocks. All fields are durations of virtual time.
type CostModel struct {
	// Latency is the wire latency L from NIC to NIC.
	Latency time.Duration
	// Overhead is the per-message CPU software overhead o paid at the
	// origin when injecting (the dominant term of a mid-2000s MPI put).
	Overhead time.Duration
	// DeliverOverhead is the per-message cost of the target NIC's ingress
	// engine; it is paid on the shared delivery lane and is much smaller
	// than Overhead (the NIC, not the CPU, handles arrivals).
	DeliverOverhead time.Duration
	// Gap is the minimum interval g between consecutive injections at one
	// NIC (the injection-rate limit).
	Gap time.Duration
	// PerKB is the cost G of moving 1024 payload bytes across the wire
	// (expressed per KB so sub-nanosecond per-byte rates stay exact in
	// integer arithmetic; 512ns/KB ≈ 2 GB/s).
	PerKB time.Duration
}

// byteCost returns n bytes' worth of a per-KB rate.
func byteCost(n int, perKB time.Duration) time.Duration {
	return time.Duration(int64(n) * int64(perKB) / 1024)
}

// DefaultCost approximates a mid-2000s HPC interconnect of the XT5 class:
// a few microseconds of put latency and ~2 GB/s of per-link bandwidth.
// Absolute values are not calibrated to the paper's testbed (see
// EXPERIMENTS.md); the ratios are what matter.
func DefaultCost() CostModel {
	return CostModel{
		Latency:         1500 * time.Nanosecond,
		Overhead:        2000 * time.Nanosecond,
		DeliverOverhead: 300 * time.Nanosecond,
		Gap:             100 * time.Nanosecond,
		PerKB:           512 * time.Nanosecond,
	}
}

// Wire returns the wire time for an n-byte payload: L + n*G.
func (c CostModel) Wire(n int) time.Duration {
	return c.Latency + byteCost(n, c.PerKB)
}

// Deliver returns the target-side ingress cost for an n-byte payload:
// the NIC's per-message overhead plus DMA into memory.
func (c CostModel) Deliver(n int) time.Duration {
	return c.DeliverOverhead + byteCost(n, c.PerKB)
}

// Inject returns the origin-side injection cost for an n-byte payload:
// o + g + n*G (software overhead, injection gap, and the CPU/DMA cost of
// moving the payload out of the user buffer).
func (c CostModel) Inject(n int) time.Duration {
	return c.Overhead + c.Gap + byteCost(n, c.PerKB)
}

// Config configures a Network.
type Config struct {
	// Ranks is the number of endpoints.
	Ranks int
	// Ordered selects whether the network preserves per-(src,dst) message
	// order (true: XT5/SeaStar-like; false: QSNet-like adaptive routing).
	Ordered bool
	// ReorderWindow bounds how many messages the unordered mode holds per
	// link before it releases one. 0 means DefaultReorderWindow. Ignored
	// when Ordered.
	ReorderWindow int
	// Seed seeds the unordered mode's release draws.
	Seed int64
	// Cost is the virtual-time cost model; the zero value means
	// DefaultCost().
	Cost CostModel
}

// DefaultReorderWindow is the unordered-mode reorder window when
// Config.ReorderWindow is 0.
const DefaultReorderWindow = 8

// chanCap sizes the Recv queue of an endpoint without a delivery hook. A
// sender blocks while it is full; the hook-less consumers (simnet's own
// tests, the benchmark's send/recv drive) read every message they send, so
// 1024 only absorbs bursts.
const chanCap = 1024

// Message is one network message. Kind, Flags and Hdr are opaque to simnet;
// the layers above define their meaning.
type Message struct {
	// Src and Dst are origin and target endpoint ids.
	Src, Dst int
	// Kind tags the protocol message type (defined by the layer above).
	Kind uint8
	// Flags carries protocol flags (defined by the layer above).
	Flags uint8
	// Seq is the per-(src,dst) sequence number simnet assigns at send
	// time, counting from 1. Ordering enforcement above simnet uses it.
	Seq uint64
	// Hdr carries op-specific header words (offsets, counts, op codes).
	Hdr [6]uint64
	// Ops is the number of logical operations the message carries (0 is
	// treated as 1). Aggregated messages — one wire message coalescing
	// many small RMA operations — set it so the network's LogicalOps
	// counter stays comparable across batched and unbatched runs, while
	// Msgs counts wire messages (and therefore per-message overhead paid).
	Ops int
	// RSeq is the reliable-delivery sequence number the portals relay
	// assigns per (src, dst) link, counting from 1. 0 means the frame is
	// not tracked by the relay. Unlike Seq it survives retransmission: a
	// retransmitted frame carries a fresh Seq but the same RSeq.
	RSeq uint64
	// Sum is the payload checksum (CRC-32C) the reliable-delivery relay
	// attaches so receivers can reject frames corrupted in flight. Only
	// meaningful when RSeq != 0.
	Sum uint32
	// Payload is the message body. simnet does not copy it; senders must
	// not reuse the slice after Send.
	Payload []byte
	// SentAt is the virtual time the message left the origin NIC.
	SentAt vtime.Time
	// ArriveAt is the virtual time the message arrives at the target NIC.
	ArriveAt vtime.Time
}

// Network is a simulated interconnect between Ranks endpoints.
type Network struct {
	cfg  Config
	eps  []*Endpoint
	once sync.Once

	// faults is the installed fault plan; nil means a lossless wire.
	faults atomic.Pointer[FaultPlan]

	// Counters for tests and the benchmark harness. Msgs counts wire
	// messages; LogicalOps counts the operations they carry (equal to
	// Msgs unless aggregated messages are in use); Bytes counts payload.
	Msgs       stats.Counter
	LogicalOps stats.Counter
	Bytes      stats.Counter

	// Fault-injection counters, incremented by the network as the
	// installed FaultPlan fires.
	FaultsDropped    stats.Counter
	FaultsDuplicated stats.Counter
	FaultsDelayed    stats.Counter
	FaultsCorrupted  stats.Counter
	FaultsBlackholed stats.Counter // messages to or from a killed rank

	// Reliable-delivery counters, incremented by the portals relay (they
	// live here because, like Msgs/Bytes, they describe world-global wire
	// traffic and must be merged exactly once across ranks).
	Retries         stats.Counter // retransmitted frames
	RetransmitBytes stats.Counter // payload bytes retransmitted
	DupDropped      stats.Counter // duplicate frames discarded by receivers
	CorruptRejected stats.Counter // frames rejected by payload checksum
}

// New constructs a network and its endpoints.
func New(cfg Config) *Network {
	if cfg.Ranks <= 0 {
		panic("simnet: Config.Ranks must be positive")
	}
	if cfg.ReorderWindow == 0 {
		cfg.ReorderWindow = DefaultReorderWindow
	}
	if (cfg.Cost == CostModel{}) {
		cfg.Cost = DefaultCost()
	}
	n := &Network{cfg: cfg}
	n.eps = make([]*Endpoint, cfg.Ranks)
	for i := range n.eps {
		n.eps[i] = newEndpoint(n, i, cfg)
	}
	return n
}

// Cost returns the network's cost model.
func (n *Network) Cost() CostModel { return n.cfg.Cost }

// Ordered reports whether the network preserves per-pair message order.
func (n *Network) Ordered() bool { return n.cfg.Ordered }

// Ranks returns the number of endpoints.
func (n *Network) Ranks() int { return n.cfg.Ranks }

// Endpoint returns endpoint id.
func (n *Network) Endpoint(id int) *Endpoint {
	return n.eps[id]
}

// Close shuts the network down. It must be called only after every sender
// and consumer (a stopped NIC, a finished Recv loop) is done; sends that
// start afterwards fail, and Recv reports the network closed once its
// queue is empty. Messages still held by an unordered link are discarded.
func (n *Network) Close() {
	n.once.Do(func() {
		for _, ep := range n.eps {
			ep.mu.Lock()
			ep.closed = true
			ep.mu.Unlock()
			close(ep.in)
		}
	})
}

// Endpoint is one rank's NIC.
type Endpoint struct {
	id  int
	net *Network
	cfg Config

	// inject serializes virtual-time injection at this NIC.
	inject vtime.Clock
	// deliver is the NIC's shared ingress lane: every arriving message
	// demands per-message overhead plus per-byte DMA time of it.
	deliver vtime.WorkLane

	// in is the Recv queue; only an endpoint without a delivery hook
	// uses it.
	in chan *Message

	// inline is the delivery hook SetInline installs; nil queues every
	// message for Recv.
	inline func(m *Message)

	mu      sync.Mutex
	nextSeq []uint64 // per-destination next sequence number
	closed  bool
	// held is the unordered mode's reorder buffer per destination (nil on
	// an ordered network).
	held [][]*Message
}

func newEndpoint(n *Network, id int, cfg Config) *Endpoint {
	ep := &Endpoint{
		id:      id,
		net:     n,
		cfg:     cfg,
		in:      make(chan *Message, chanCap),
		nextSeq: make([]uint64, cfg.Ranks),
	}
	if !cfg.Ordered {
		ep.held = make([][]*Message, cfg.Ranks)
	}
	return ep
}

// ID returns the endpoint's rank id.
func (ep *Endpoint) ID() int { return ep.id }

// Cost returns the network's cost model.
func (ep *Endpoint) Cost() CostModel { return ep.cfg.Cost }

// Ordered reports whether the network preserves per-pair message order.
func (ep *Endpoint) Ordered() bool { return ep.cfg.Ordered }

// Ranks returns the number of endpoints in the network.
func (ep *Endpoint) Ranks() int { return ep.cfg.Ranks }

// Network returns the network this endpoint belongs to, giving telemetry
// access to the world-global traffic counters.
func (ep *Endpoint) Network() *Network { return ep.net }

// InjectClock exposes the endpoint's origin-side virtual clock (used by
// tests and the harness to read per-rank injection time).
func (ep *Endpoint) InjectClock() *vtime.Clock { return &ep.inject }

// DeliverLane exposes the endpoint's target-side ingress lane.
func (ep *Endpoint) DeliverLane() *vtime.WorkLane { return &ep.deliver }

// Send injects m into the network at virtual time now and returns the
// message's arrival time at the target NIC. simnet assigns m.Seq, m.SentAt
// and m.ArriveAt. Send never blocks for virtual time. On an ordered network
// a target with a delivery hook (SetInline) is handed m before Send
// returns; a target without one queues m for Recv, and Send blocks while
// that queue is full. On an unordered network m joins its link's reorder
// buffer (see hold); whatever the buffer releases is delivered the same
// way.
func (ep *Endpoint) Send(now vtime.Time, m *Message) (vtime.Time, error) {
	if err := ep.stamp(m); err != nil {
		return 0, err
	}
	_, sent := ep.inject.Reserve(now, ep.cfg.Cost.Inject(len(m.Payload)))
	return ep.transmit(m, sent), nil
}

// SendNIC injects a NIC-generated control message (a hardware
// acknowledgement or get reply) at virtual time sentAt. Unlike Send it does
// not charge the origin CPU's injection overhead or gap: the NIC firmware
// produces the message, not the processor. Sequence numbers are still
// assigned so ordering layers see a consistent stream.
func (ep *Endpoint) SendNIC(sentAt vtime.Time, m *Message) (vtime.Time, error) {
	if err := ep.stamp(m); err != nil {
		return 0, err
	}
	return ep.transmit(m, sentAt), nil
}

// stamp checks m's destination and numbers m on its link, unless the
// endpoint is closed.
func (ep *Endpoint) stamp(m *Message) error {
	if m.Dst < 0 || m.Dst >= ep.cfg.Ranks {
		return fmt.Errorf("simnet: send to invalid rank %d (network has %d)", m.Dst, ep.cfg.Ranks)
	}
	m.Src = ep.id
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return fmt.Errorf("simnet: endpoint %d is closed", ep.id)
	}
	ep.nextSeq[m.Dst]++
	m.Seq = ep.nextSeq[m.Dst]
	ep.mu.Unlock()
	return nil
}

// transmit stamps m as leaving at sent, counts it against the traffic
// counters, runs it through the installed fault plan (if any) and hands
// the surviving copy or copies on for delivery. It returns the arrival
// time the sender observes — the pre-fault arrival: real NICs do not
// learn that the wire dropped or delayed a frame.
func (ep *Endpoint) transmit(m *Message, sent vtime.Time) vtime.Time {
	m.SentAt = sent
	m.ArriveAt = sent + vtime.Time(ep.cfg.Cost.Wire(len(m.Payload)))
	arrive := m.ArriveAt

	ep.net.Msgs.Inc()
	if m.Ops > 1 {
		ep.net.LogicalOps.Add(int64(m.Ops))
	} else {
		ep.net.LogicalOps.Inc()
	}
	ep.net.Bytes.Add(int64(len(m.Payload)))

	var dup *Message
	if plan := ep.net.faults.Load(); plan != nil {
		// A killed rank blackholes all traffic: messages it sends after the
		// kill vanish, and messages that would arrive while it is dead
		// vanish too. The sender still observes the pre-fault arrival time —
		// death is visible only through timeouts, never synchronously.
		if plan.rankDead(m.Src, m.SentAt) || plan.rankDead(m.Dst, m.ArriveAt) {
			ep.net.FaultsBlackholed.Inc()
			return arrive
		}
		m, dup = ep.net.injectFaults(plan, m)
		if m == nil {
			return arrive // dropped: the sender never learns
		}
	}

	if ep.cfg.Ordered {
		dst := ep.net.eps[m.Dst]
		dst.arrive(m)
		if dup != nil {
			dst.arrive(dup)
		}
		return arrive
	}
	ep.hold(m)
	if dup != nil {
		ep.hold(dup)
	}
	return arrive
}

// hold adds m to its link's reorder buffer; a full buffer releases one
// message, chosen by a stateless seeded draw like the fault draws.
func (ep *Endpoint) hold(m *Message) {
	ep.mu.Lock()
	buf := append(ep.held[m.Dst], m)
	var out *Message
	if len(buf) >= ep.cfg.ReorderWindow {
		out, buf = ep.pick(buf, m.Seq)
	}
	ep.held[m.Dst] = buf
	ep.mu.Unlock()
	if out != nil {
		ep.net.eps[out.Dst].arrive(out)
	}
}

// pick removes the message the draw keyed on seq selects from one link's
// non-empty reorder buffer. Caller holds ep.mu.
func (ep *Endpoint) pick(buf []*Message, seq uint64) (*Message, []*Message) {
	i := faultHash(ep.cfg.Seed, ep.id, buf[0].Dst, seq, saltReorder) % uint64(len(buf))
	m, last := buf[i], len(buf)-1
	buf[i], buf[last] = buf[last], nil
	return m, buf[:last]
}

// Flush releases everything this endpoint's unordered links still hold,
// one seeded draw at a time, and reports whether there was anything: a
// rank does when it blocks or returns, and so does a quiet world.
func (ep *Endpoint) Flush() bool {
	if ep.cfg.Ordered {
		return false
	}
	flushed := false
	for dst := range ep.held {
		for {
			ep.mu.Lock()
			buf := ep.held[dst]
			if len(buf) == 0 || ep.closed {
				ep.mu.Unlock()
				break
			}
			var m *Message
			m, ep.held[dst] = ep.pick(buf, buf[len(buf)-1].Seq)
			ep.mu.Unlock()
			ep.net.eps[dst].arrive(m)
			flushed = true
		}
	}
	return flushed
}

// SetInline installs the endpoint's delivery hook: every message bound
// here is handed to f instead of queueing for Recv, on the goroutine that
// releases it — on an ordered network the sender, in send order per
// sender; on an unordered one whichever goroutine's send fills the link's
// reorder buffer or flushes it, once each. f must not block. Call it
// before any traffic.
func (ep *Endpoint) SetInline(f func(m *Message)) { ep.inline = f }

// arrive hands m to the delivery hook, or queues it for Recv when there is
// none.
func (ep *Endpoint) arrive(m *Message) {
	if ep.inline != nil {
		ep.inline(m)
		return
	}
	ep.in <- m
}

// Recv blocks until a message is delivered to this endpoint, returning
// false when the network has been closed and the queue drained.
func (ep *Endpoint) Recv() (*Message, bool) {
	m, ok := <-ep.in
	return m, ok
}
