package core

import (
	"sync/atomic"

	"mpi3rma/internal/simnet"
)

// Frame ownership. Every wire message core builds is a frame from
// newMsg. Those of a singleton operation and of the replies to one — put
// and accumulate bodies, get requests, RMW operands, get replies, RMW
// replies, acks and notifications — go back to their sender: the frame's
// consumer marks it consumed as its very last touch (consume), and the
// sender, once it is done with the frame after the send, keeps a consumed
// frame as its engine's one spare (reclaim), which the next newMsg takes.
// A frame not yet consumed when its sender looks — backlogged, held in a
// reorder buffer, parked, deferred behind the buddy, dropped or cloned by
// a fault plan — is left to the collector. The holders that outlive the
// consumer keep copies (the relay's txFrame, a fault plan's clones), so no
// reference count is needed. DESIGN.md §5 has the table.

// frameInline is the largest payload a frame carries inside its own
// allocation: an 8-byte put with its type frame, a get's type frame, an
// RMW's operands, an old value.
const frameInline = 32

// spareBody is the largest payload a spare frame keeps a buffer for: a
// 1 KiB put and a strided 512-byte body fit; larger bodies are allocated
// per message and not kept.
const spareBody = 4096

// frame is a message with room for a small payload behind it and, once it
// has carried a larger body of a recycled kind, that body's buffer.
type frame struct {
	simnet.Message
	body [frameInline]byte
	buf  []byte
	// handBack is fixed when the frame is allocated: its kind is
	// recycled, so its sender looks for it coming back.
	handBack bool
}

// spareSlot holds an engine's spare frame on a cache line of its own:
// every send of a recycled kind takes it and every hand-back stores it,
// and next to a field every emit loads it would make each of them miss.
type spareSlot struct {
	_ [64]byte
	f atomic.Pointer[frame]
	_ [56]byte
}

// kPoisoned is the kind a quarantined frame is stamped with: no layer
// registers it.
const kPoisoned = 0xff

// recycled reports whether frames of kind come back to their sender: the
// kinds whose consumer marks them consumed. Active messages do not (the
// handler may keep the payload), nor do batch aggregates (their buffers
// have a free list of their own) or the control kinds.
func recycled(kind uint8) bool {
	switch kind {
	case kPut, kGet, kRMW, kGetReply, kRMWReply, kAck, kNotify:
		return true
	}
	return false
}

// newMsg builds a message skeleton of kind to dst with an n-byte payload
// for the caller to fill completely: a frame of a recycled kind may have
// carried another body before. The payload lives inside the frame up to
// frameInline, in the frame's kept buffer up to spareBody for a recycled
// kind, and in an allocation of its own beyond.
func (e *Engine) newMsg(dst int, kind uint8, n int) *frame {
	keep := recycled(kind)
	var f *frame
	if keep {
		f = e.spare.f.Swap(nil)
	}
	if f == nil {
		f = &frame{handBack: keep}
	}
	f.Message = simnet.Message{Dst: dst, Kind: kind}
	switch {
	case n == 0:
	case n <= frameInline:
		f.Payload = f.body[:n:n]
	case keep && n <= spareBody:
		if cap(f.buf) < n {
			f.buf = make([]byte, n)
		}
		f.Payload = f.buf[:n:n]
	default:
		f.Payload = make([]byte, n)
	}
	return f
}

// reclaim is a sender's last look at a frame it sent: a consumed frame
// becomes the engine's spare, one its consumer has not let go of is left
// to the collector. Frames of the other kinds are never marked and are
// not counted.
func (e *Engine) reclaim(f *frame) {
	switch {
	case !f.handBack:
	case !f.Consumed():
		e.FramesAbandoned.Inc()
	case !e.quarantine:
		e.FramesReused.Inc()
		e.spare.f.Store(f)
	}
}

// consume is the consumer's last touch of m, a message of a recycled kind:
// from here on its sender may reuse it. Quarantined, it poisons m first,
// so a touch after the mark reads an unregistered kind, all-ones header
// words and 0xdb payload bytes instead of hiding behind a reuse.
func (e *Engine) consume(m *simnet.Message) {
	if e.quarantine {
		m.Kind = kPoisoned
		for i := range m.Hdr {
			m.Hdr[i] = ^uint64(0)
		}
		for i := range m.Payload {
			m.Payload[i] = 0xdb
		}
	}
	m.Consume()
}
