package core

import (
	gort "runtime"
	"sync/atomic"
	"unsafe"

	"mpi3rma/internal/simnet"
)

// Frame ownership. Every wire message core builds is a frame from
// newMsg. Those of a singleton operation, of the replies to one and of the
// control round trips — put and accumulate bodies, get requests, RMW
// operands, get replies, RMW replies, acks, notifications, lock requests
// and grants, probes and their answers — come back to the engine that
// allocated them, their home. A frame has two parties, and each lets go
// of it once (simnet.Message.Release): the sender once the send has
// returned and it has read the frame's stamps (reclaim), the consumer as
// its very last touch (consume). Whichever lets go second holds the frame
// alone and puts it among its home's spares, which the next newMsg takes.
// A frame only one party ever lets go of — dropped, blackholed or replaced
// by a clone on the wire, or never sent — is left to the collector; the
// holders that outlive the consumer keep copies (the relay's master, a
// fault plan's clones), which nobody but their consumer releases, so they
// never come home. DESIGN.md §5 has the table.

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
// Message is its first field: a consumer that lets go of a frame second
// turns the *simnet.Message it was handed back into the frame.
type frame struct {
	simnet.Message
	body [frameInline]byte
	buf  []byte
	// home is the engine that allocated the frame, fixed at allocation:
	// nil unless its kind is recycled.
	home *Engine
	// op is the consumer's record of the frame's operation (apply.go).
	op applyOp
}

// spareCap is how many frames that came home an engine keeps: enough for
// every frame an origin has out between one Complete and the next, when
// its puts wait in the backlog of a target another origin is delivering
// to (TestAllocsTwoOriginOverlap).
const spareCap = 128

// spares holds the frames that came home to an engine in a bounded
// lock-free ring, Vyukov's bounded MPMC queue (the discipline dht/queue
// runs over RMA): a put and a take each claim a position with one CAS on a
// counter of their own, and each cell's sequence word says which lap may
// use it next. A cell stores its sequence number minus its index, so a
// zero ring is an empty one. Each counter sits on a cache line of its
// own: every send of a recycled kind advances one and every homecoming
// the other, and next to a field every emit loads they would make each of
// them miss.
type spares struct {
	_    [64]byte
	head atomic.Uint64 // next position to take
	_    [56]byte
	tail atomic.Uint64 // next position to put
	_    [56]byte
	ring [spareCap]struct {
		seq atomic.Uint64 // lap base of the position, +1 while it holds a frame
		f   *frame
	}
	_ [64]byte
}

// take returns the oldest spare frame, or nil when the ring is empty. A
// put that has claimed the head cell but not filled it yet (preempted
// between its two steps) is waited out, not taken for an empty ring.
func (s *spares) take() *frame {
	pos := s.head.Load()
	for {
		c := &s.ring[pos%spareCap]
		switch d := int64(c.seq.Load() - (pos - pos%spareCap + 1)); {
		case d == 0:
			if s.head.CompareAndSwap(pos, pos+1) {
				f := c.f
				c.f = nil
				c.seq.Store(pos - pos%spareCap + spareCap)
				return f
			}
			pos = s.head.Load()
		case d < 0:
			if s.tail.Load() <= pos {
				return nil // empty: the cell still waits for this lap's put
			}
			gort.Gosched()
			pos = s.head.Load()
		default:
			pos = s.head.Load() // another taker got there first
		}
	}
}

// put stores f as a spare; with the ring full f is dropped. A take that
// has claimed the tail cell but not emptied it yet is waited out.
func (s *spares) put(f *frame) {
	pos := s.tail.Load()
	for {
		c := &s.ring[pos%spareCap]
		switch d := int64(c.seq.Load() - (pos - pos%spareCap)); {
		case d == 0:
			if s.tail.CompareAndSwap(pos, pos+1) {
				c.f = f
				c.seq.Store(pos - pos%spareCap + 1)
				return
			}
			pos = s.tail.Load()
		case d < 0:
			if s.head.Load()+spareCap <= pos {
				return // full: the cell still holds the previous lap's frame
			}
			gort.Gosched()
			pos = s.tail.Load()
		default:
			pos = s.tail.Load() // another putter got there first
		}
	}
}

// kPoisoned is the kind a quarantined frame is stamped with: no layer
// registers it.
const kPoisoned = 0xff

// recycled reports whether frames of kind come home: the kinds whose
// consumer lets go of them (consume). Active messages do not (the handler
// may keep the payload), nor do batch aggregates (their buffers have a
// free list of their own) or the replication and ping frames.
func recycled(kind uint8) bool {
	switch kind {
	case kPut, kGet, kRMW, kGetReply, kRMWReply, kAck, kNotify,
		kLockReq, kLockGrant, kProbe, kProbeAck:
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
		if f = e.spares.take(); f != nil {
			e.FramesReused.Inc()
		} else {
			e.FramesAllocated.Inc()
			f = &frame{home: e}
		}
	} else {
		f = &frame{}
	}
	f.Message = simnet.Message{Dst: dst, Kind: kind, Framed: true}
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

// reclaim is the sender's release of a frame it sent, or failed to: once
// the send has returned and its stamps have been read, the sender lets go.
// Frames of the other kinds are not released.
func (e *Engine) reclaim(f *frame) {
	if f.home != nil && f.Release() {
		f.goHome()
	}
}

// consume is the consumer's release of m, a message of a recycled kind,
// as its last touch. Quarantined, it poisons m first, so a touch after the
// release reads an unregistered kind, all-ones header words and 0xdb
// payload bytes instead of hiding behind a reuse.
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
	if m.Release() {
		// Only the sender's reclaim and this release count, and the
		// sender releases only a frame, never a copy: a message released
		// twice is a frame.
		(*frame)(unsafe.Pointer(m)).goHome()
	}
}

// goHome puts a frame both its parties have let go of among its home's
// spares, unless the home keeps none (quarantine).
func (f *frame) goHome() {
	if e := f.home; !e.quarantine {
		e.spares.put(f)
	}
}
