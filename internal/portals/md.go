package portals

import (
	"fmt"

	"mpi3rma/internal/memsim"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// EventType identifies a Portals event.
type EventType uint8

const (
	// EvSendEnd reports local completion of a Put at the origin: the data
	// has left the origin buffer, which may be reused.
	EvSendEnd EventType = iota + 1
	// EvAck reports remote completion of a Put at the origin: the data has
	// been deposited in the target's memory.
	EvAck
	// EvPutEnd reports, at the target, that an incoming Put has been
	// deposited into the memory descriptor.
	EvPutEnd
)

// String returns the event type's Portals-style name.
func (t EventType) String() string {
	switch t {
	case EvSendEnd:
		return "SEND_END"
	case EvAck:
		return "ACK"
	case EvPutEnd:
		return "PUT_END"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(t))
	}
}

// Event is one entry of an event queue.
type Event struct {
	// Type is the event type.
	Type EventType
	// MD is the memory descriptor the event concerns.
	MD *MD
	// Peer is the other rank involved (target for origin events, initiator
	// for target events).
	Peer int
	// Offset and Length locate the affected bytes within the MD.
	Offset, Length int
	// UserHdr is the 64-bit header data the initiator attached.
	UserHdr uint64
	// At is the virtual time the event occurred.
	At vtime.Time
}

// EQ is a Portals event queue.
type EQ struct {
	ch chan Event
}

// DefaultEQDepth is the event queue capacity used by NewEQ(0).
const DefaultEQDepth = 1024

// NewEQ returns an event queue with the given capacity (0 means
// DefaultEQDepth).
func NewEQ(depth int) *EQ {
	if depth <= 0 {
		depth = DefaultEQDepth
	}
	return &EQ{ch: make(chan Event, depth)}
}

// Wait blocks until an event is available and returns it.
func (q *EQ) Wait() Event { return <-q.ch }

// post enqueues ev, or drops it when the queue is full (the Portals
// EQ-overflow state): a handler posting it holds its NIC's delivery token
// and must never stall on a slow consumer.
func (q *EQ) post(ev Event) {
	select {
	case q.ch <- ev:
	default:
	}
}

// MDOptions selects what remote operations a memory descriptor permits.
type MDOptions uint8

const (
	// MDPut permits incoming put operations.
	MDPut MDOptions = 1 << iota
)

// MD is a memory descriptor: a region of the rank's memory bound for
// communication, with an optional event queue.
type MD struct {
	nic    *NIC
	handle uint64
	region memsim.Region
	eq     *EQ
	opts   MDOptions
}

// AttachMD binds a region of the rank's memory as a memory descriptor.
// eq may be nil if the caller does not want events.
func (n *NIC) AttachMD(region memsim.Region, eq *EQ, opts MDOptions) *MD {
	n.mu.Lock()
	defer n.mu.Unlock()
	md := &MD{
		nic:    n,
		handle: uint64(len(n.mds)),
		region: region,
		eq:     eq,
		opts:   opts,
	}
	n.mds = append(n.mds, md)
	return md
}

// Expose binds md to portal-table index idx, making it addressable by
// remote Put operations naming that index.
func (n *NIC) Expose(idx int, md *MD) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.table[idx]; dup {
		panic(fmt.Sprintf("portals: rank %d: portal index %d already exposed", n.ep.ID(), idx))
	}
	n.table[idx] = md
}

func (n *NIC) lookupPortal(idx int) *MD {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.table[idx]
}

func (n *NIC) lookupMD(handle uint64) *MD {
	n.mu.Lock()
	defer n.mu.Unlock()
	if handle >= uint64(len(n.mds)) {
		return nil
	}
	return n.mds[handle]
}

// Header word layout for portals messages.
const (
	hdrMD      = 0 // origin MD handle
	hdrPortal  = 1 // target portal index
	hdrTgtOff  = 2 // target offset within the exposed MD
	hdrLen     = 3 // acknowledged length
	hdrUser    = 4 // 64-bit user header data
	flagAckReq = 1 // Flags bit: put requests an acknowledgement
)

// Put transfers n bytes from the MD at mdOff to the memory descriptor
// exposed at (target, ptlIndex)+targetOff, starting at virtual time now.
// If ack is true the target acknowledges the deposit and an EvAck event is
// delivered to the MD's event queue; an EvSendEnd event reports local
// completion either way. Put returns the local-completion virtual time.
func (md *MD) Put(now vtime.Time, mdOff, n int, target, ptlIndex, targetOff int, ack bool, userHdr uint64) (vtime.Time, error) {
	if !md.region.Contains(mdOff, n) {
		return 0, fmt.Errorf("portals: put source [%d,%d) outside MD of %d bytes", mdOff, mdOff+n, md.region.Size)
	}
	buf := make([]byte, n)
	if err := md.nic.mem.RemoteRead(md.region.Offset+mdOff, buf); err != nil {
		return 0, err
	}
	m := &simnet.Message{
		Dst:     target,
		Kind:    KindPtlPut,
		Payload: buf,
	}
	m.Hdr[hdrMD] = md.handle
	m.Hdr[hdrPortal] = uint64(ptlIndex)
	m.Hdr[hdrTgtOff] = uint64(targetOff)
	m.Hdr[hdrUser] = userHdr
	if ack {
		m.Flags |= flagAckReq
	}
	if _, err := md.nic.Send(now, m); err != nil {
		return 0, err
	}
	if md.eq != nil {
		md.eq.post(Event{Type: EvSendEnd, MD: md, Peer: target, Offset: mdOff, Length: n, UserHdr: userHdr, At: m.SentAt})
	}
	return m.SentAt, nil
}

// registerPortalsHandlers installs the protocol handlers for put and ack
// messages on the NIC dispatch table.
func (n *NIC) registerPortalsHandlers() {
	n.handlers[KindPtlPut] = n.handlePut
	n.handlers[KindPtlAck] = n.handleAck
}

func (n *NIC) handlePut(m *simnet.Message, at vtime.Time) {
	md := n.lookupPortal(int(m.Hdr[hdrPortal]))
	if md == nil || md.opts&MDPut == 0 {
		n.BadReq.Inc()
		return
	}
	off := int(m.Hdr[hdrTgtOff])
	if !md.region.Contains(off, len(m.Payload)) {
		n.BadReq.Inc()
		return
	}
	if err := n.mem.RemoteWrite(md.region.Offset+off, m.Payload); err != nil {
		n.BadReq.Inc()
		return
	}
	if md.eq != nil {
		md.eq.post(Event{Type: EvPutEnd, MD: md, Peer: m.Src, Offset: off, Length: len(m.Payload), UserHdr: m.Hdr[hdrUser], At: at})
	}
	if m.Flags&flagAckReq != 0 {
		ack := &simnet.Message{Dst: m.Src, Kind: KindPtlAck}
		ack.Hdr[hdrMD] = m.Hdr[hdrMD]
		ack.Hdr[hdrTgtOff] = m.Hdr[hdrTgtOff]
		ack.Hdr[hdrLen] = uint64(len(m.Payload))
		ack.Hdr[hdrUser] = m.Hdr[hdrUser]
		_, _ = n.SendAck(at, ack, false)
	}
}

func (n *NIC) handleAck(m *simnet.Message, at vtime.Time) {
	md := n.lookupMD(m.Hdr[hdrMD])
	if md == nil {
		n.BadReq.Inc()
		return
	}
	if md.eq != nil {
		md.eq.post(Event{Type: EvAck, MD: md, Peer: m.Src, Offset: int(m.Hdr[hdrTgtOff]), Length: int(m.Hdr[hdrLen]), UserHdr: m.Hdr[hdrUser], At: at})
	}
}
