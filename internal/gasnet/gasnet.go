// Package gasnet implements a GASNet-like communication subsystem (paper
// Section VI): the layer beneath the Berkeley UPC compiler.
//
// Reproduced from the paper's description:
//
//   - A core API based on the Active Message paradigm, with distinct
//     interfaces for short, medium and long active messages. "No
//     particular ordering is guaranteed for these operations nor is it
//     possible to specify any."
//   - An extended API with RMA Put and Get — contiguous only: "the
//     current GASNet extend API RMA specification (version 1.8) does not
//     include support for non-contiguous data transfers", and there is no
//     accumulate.
//
// Unlike internal/armci, this layer does *not* ride on the strawman
// engine: it speaks its own message kinds directly over the NIC, because
// an AM-core design is architecturally different (every operation,
// including the extended puts and gets, is mediated by a handler running
// on the target's implicit communication thread). That difference is what
// experiment E7 measures.
package gasnet

import (
	"fmt"
	"sync"

	"mpi3rma/internal/memsim"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/vtime"
)

// Message kinds.
const (
	kShort = portals.KindGASNetBase + 0 // short AM: arguments only
	kMed   = portals.KindGASNetBase + 1 // medium AM: payload into a bounce buffer
	kLong  = portals.KindGASNetBase + 2 // long AM: payload into the segment
	kReply = portals.KindGASNetBase + 3 // reply AM (short or medium)
)

// Header words.
const (
	hIdx  = 0 // handler index
	hA0   = 1 // argument 0
	hA1   = 2 // argument 1
	hDest = 3 // long AM: destination offset in the segment
	hReq  = 5 // origin completion cookie (0 = none wanted)
)

// MaxArgs is the number of 64-bit handler arguments (GASNet allows more;
// two suffice for the workloads here and keep the header flat).
const MaxArgs = 2

// MaxMedium is the largest medium-AM payload (GASNet's
// gasnet_AMMaxMedium, typically a few KB).
const MaxMedium = 4096

// Handler runs at the target when an active message arrives. payload is
// nil for short AMs, a bounce buffer for medium AMs, and the deposited
// segment bytes for long AMs (already written to the segment). Handlers
// execute under the NIC's delivery token — the implicit communication
// thread, on whichever goroutine holds it — and may send at most one
// reply through the token.
type Handler func(tok *Token, payload []byte, args [MaxArgs]uint64)

// Token identifies the requester within a handler, enabling a reply.
type Token struct {
	g       *GASNet
	src     int
	at      vtime.Time
	reqID   uint64
	replied bool
}

// Src returns the requesting rank.
func (t *Token) Src() int { return t.src }

// Reply sends a (short or medium) reply AM to the requester. At most one
// reply is allowed per handler invocation, matching GASNet's rule.
func (t *Token) Reply(idx uint8, payload []byte, args [MaxArgs]uint64) error {
	if t.replied {
		return fmt.Errorf("gasnet: handler replied twice")
	}
	t.replied = true
	m := &simnet.Message{Dst: t.src, Kind: kReply, Payload: append([]byte(nil), payload...)}
	m.Hdr[hIdx] = uint64(idx)
	m.Hdr[hA0] = args[0]
	m.Hdr[hA1] = args[1]
	m.Hdr[hReq] = t.reqID
	if _, err := t.g.proc.NIC().Send(t.at, m); err != nil {
		return err
	}
	return nil
}

// GASNet is one rank's GASNet state.
type GASNet struct {
	proc *runtime.Proc

	mu       sync.Mutex
	handlers map[uint8]Handler
	segment  memsim.Region
	segSet   bool
	segments []SegmentInfo

	waitMu  sync.Mutex
	waitSeq uint64
	waits   map[uint64]*opWait

	// Counters.
	AMsShort  stats.Counter
	AMsMedium stats.Counter
	AMsLong   stats.Counter
	Replies   stats.Counter
}

// SegmentInfo describes one rank's attached segment.
type SegmentInfo struct {
	Rank int
	Size int
}

// opWait tracks a nonblocking extended-API operation.
type opWait struct {
	done *runtime.Bell // rings once, with the reply
	at   vtime.Time
	data []byte
}

// extKey is the Proc extension slot.
const extKey = "gasnet"

// Attach returns the rank's GASNet layer, creating it on first use.
func Attach(p *runtime.Proc) *GASNet {
	return p.Ext(extKey, func() any {
		g := &GASNet{
			proc:     p,
			handlers: make(map[uint8]Handler),
			waits:    make(map[uint64]*opWait),
		}
		nic := p.NIC()
		nic.RegisterHandler(kShort, g.handleAM)
		nic.RegisterHandler(kMed, g.handleAM)
		nic.RegisterHandler(kLong, g.handleAM)
		nic.RegisterHandler(kReply, g.handleReply)
		g.initExtended()
		return g
	}).(*GASNet)
}

// RegisterHandler installs an AM handler under idx (gasnet_attach's
// handler table). Indices 0-127 are for requests, 128-255 for replies by
// convention; this implementation does not enforce the split.
func (g *GASNet) RegisterHandler(idx uint8, h Handler) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.handlers[idx]; dup {
		return fmt.Errorf("gasnet: handler index %d already registered", idx)
	}
	g.handlers[idx] = h
	return nil
}

// AttachSegment collectively attaches a segment of the given size on every
// member of comm (gasnet_attach) and records everyone's segment sizes.
// Long AMs and the extended API address memory within the segment.
func (g *GASNet) AttachSegment(comm *runtime.Comm, size int) (memsim.Region, error) {
	g.mu.Lock()
	if g.segSet {
		g.mu.Unlock()
		return memsim.Region{}, fmt.Errorf("gasnet: segment already attached")
	}
	g.mu.Unlock()
	region := g.proc.Alloc(size)
	sizes := comm.AllgatherInt64(int64(size))
	infos := make([]SegmentInfo, comm.Size())
	for i, s := range sizes {
		infos[i] = SegmentInfo{Rank: i, Size: int(s)}
	}
	g.mu.Lock()
	g.segment = region
	g.segSet = true
	g.segments = infos
	g.mu.Unlock()
	comm.Barrier()
	return region, nil
}

// Segment returns this rank's attached segment.
func (g *GASNet) Segment() (memsim.Region, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.segment, g.segSet
}

// SegmentSize returns the attached segment size of a comm rank.
func (g *GASNet) SegmentSize(rank int) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.segSet || rank < 0 || rank >= len(g.segments) {
		return 0, fmt.Errorf("gasnet: no segment information for rank %d", rank)
	}
	return g.segments[rank].Size, nil
}

// newWait registers a completion cookie.
func (g *GASNet) newWait() (uint64, *opWait) {
	w := &opWait{done: g.proc.NewBell()}
	g.waitMu.Lock()
	g.waitSeq++
	id := g.waitSeq
	g.waits[id] = w
	g.waitMu.Unlock()
	return id, w
}

// takeWait removes and returns a cookie's wait state.
func (g *GASNet) takeWait(id uint64) *opWait {
	g.waitMu.Lock()
	defer g.waitMu.Unlock()
	w := g.waits[id]
	delete(g.waits, id)
	return w
}

// RequestShort sends a short AM (arguments only).
func (g *GASNet) RequestShort(dst int, comm *runtime.Comm, idx uint8, args [MaxArgs]uint64) error {
	g.AMsShort.Inc()
	return g.request(kShort, dst, comm, idx, nil, 0, args, 0)
}

// RequestMedium sends a medium AM: the payload is delivered to a bounce
// buffer at the target and passed to the handler.
func (g *GASNet) RequestMedium(dst int, comm *runtime.Comm, idx uint8, payload []byte, args [MaxArgs]uint64) error {
	if len(payload) > MaxMedium {
		return fmt.Errorf("gasnet: medium AM payload of %d bytes exceeds the %d-byte maximum", len(payload), MaxMedium)
	}
	g.AMsMedium.Inc()
	return g.request(kMed, dst, comm, idx, payload, 0, args, 0)
}

// RequestLong sends a long AM: the payload is deposited into the target's
// segment at dstOff before the handler runs.
func (g *GASNet) RequestLong(dst int, comm *runtime.Comm, idx uint8, payload []byte, dstOff int, args [MaxArgs]uint64) error {
	g.AMsLong.Inc()
	return g.request(kLong, dst, comm, idx, payload, dstOff, args, 0)
}

func (g *GASNet) request(kind uint8, dst int, comm *runtime.Comm, idx uint8, payload []byte, dstOff int, args [MaxArgs]uint64, reqID uint64) error {
	m := &simnet.Message{Dst: comm.WorldRank(dst), Kind: kind}
	if payload != nil {
		m.Payload = append([]byte(nil), payload...)
	}
	m.Hdr[hIdx] = uint64(idx)
	m.Hdr[hA0] = args[0]
	m.Hdr[hA1] = args[1]
	m.Hdr[hDest] = uint64(dstOff)
	m.Hdr[hReq] = reqID
	if _, err := g.proc.NIC().Send(g.proc.Now(), m); err != nil {
		return err
	}
	g.proc.NIC().CPU().AdvanceTo(m.SentAt)
	return nil
}

// handleAM dispatches an incoming request AM.
func (g *GASNet) handleAM(m *simnet.Message, at vtime.Time) {
	g.mu.Lock()
	h := g.handlers[uint8(m.Hdr[hIdx])]
	seg := g.segment
	segSet := g.segSet
	g.mu.Unlock()
	payload := m.Payload
	if m.Kind == kLong {
		if !segSet {
			g.proc.NIC().BadReq.Inc()
			return
		}
		off := int(m.Hdr[hDest])
		if !seg.Contains(off, len(payload)) {
			g.proc.NIC().BadReq.Inc()
			return
		}
		if err := g.proc.Mem().RemoteWrite(seg.Offset+off, payload); err != nil {
			g.proc.NIC().BadReq.Inc()
			return
		}
	}
	if h == nil {
		g.proc.NIC().BadReq.Inc()
		return
	}
	tok := &Token{g: g, src: m.Src, at: at, reqID: m.Hdr[hReq]}
	h(tok, payload, [MaxArgs]uint64{m.Hdr[hA0], m.Hdr[hA1]})
}

// handleReply dispatches a reply AM: if the origin registered a completion
// cookie the reply completes it (and delivers the payload); a registered
// reply handler, if any, also runs.
func (g *GASNet) handleReply(m *simnet.Message, at vtime.Time) {
	g.Replies.Inc()
	if id := m.Hdr[hReq]; id != 0 {
		if w := g.takeWait(id); w != nil {
			w.at = at
			w.data = m.Payload
			w.done.Ring()
			return
		}
	}
	g.mu.Lock()
	h := g.handlers[uint8(m.Hdr[hIdx])]
	g.mu.Unlock()
	if h == nil {
		g.proc.NIC().BadReq.Inc()
		return
	}
	tok := &Token{g: g, src: m.Src, at: at, replied: true} // replies cannot be replied to
	h(tok, m.Payload, [MaxArgs]uint64{m.Hdr[hA0], m.Hdr[hA1]})
}
