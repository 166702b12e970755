package runtime

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/lockrank"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// Wildcards for Recv.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// kindPt2pt is the runtime's tagged point-to-point message kind.
const kindPt2pt = portals.KindRuntimeBase

// pending is one arrived-but-unmatched point-to-point message.
type pending struct {
	src    int // world rank
	tag    int
	commID uint64
	data   []byte
	at     vtime.Time
}

// Proc is one rank's process context. All methods are intended to be
// called from the rank's own goroutine, except where noted.
type Proc struct {
	world *World
	rank  int
	nic   *portals.NIC
	mem   *memsim.Memory
	order datatype.ByteOrder

	// mu guards inbox, kept by value.
	mu    lockrank.Plain
	inbox []pending
	// arrived rings on every arrival; Recv parks on it.
	arrived *Bell

	// parkedN counts the rank's goroutines parked in the library, plus
	// one while World.Run is not running its function; the rank counts
	// toward World.running while it is zero.
	parkedN atomic.Int64

	// quiet is the hook the world's quiet step calls (see OnQuiet).
	quiet atomic.Pointer[func(spell uint64) bool]

	// commCounters numbers communicator creations per parent, so every
	// member derives the same id for a collectively created communicator.
	commCounters map[uint64]uint64

	// ext holds per-layer engines attached to this rank (the strawman RMA
	// engine, the MPI-2 window engine, ...), keyed by layer name.
	extMu lockrank.Plain
	ext   map[string]any

	self *Comm // the world communicator as seen by this rank
}

func newProc(w *World, rank int, nic *portals.NIC, mem *memsim.Memory, order datatype.ByteOrder) *Proc {
	p := &Proc{
		world:        w,
		rank:         rank,
		nic:          nic,
		mem:          mem,
		order:        order,
		commCounters: make(map[uint64]uint64),
		ext:          make(map[string]any),
	}
	p.parkedN.Store(1)
	p.arrived = newBell()
	nic.RegisterHandler(kindPt2pt, p.handlePt2pt)
	ranks := make([]int, w.cfg.Ranks)
	for i := range ranks {
		ranks[i] = i
	}
	p.self = &Comm{proc: p, id: 0, ranks: ranks, me: rank}
	return p
}

// Rank returns this process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size (compute ranks; spares excluded).
func (p *Proc) Size() int { return p.world.cfg.Ranks }

// IsSpare reports whether this process is a standby spare — outside the
// world communicator, idle until bound to a dead rank by the membership
// service.
func (p *Proc) IsSpare() bool { return p.rank >= p.world.cfg.Ranks }

// World returns the enclosing world.
func (p *Proc) World() *World { return p.world }

// NIC returns the rank's network interface.
func (p *Proc) NIC() *portals.NIC { return p.nic }

// Mem returns the rank's memory.
func (p *Proc) Mem() *memsim.Memory { return p.mem }

// ByteOrder returns the rank's memory byte order.
func (p *Proc) ByteOrder() datatype.ByteOrder { return p.order }

// Comm returns the world communicator.
func (p *Proc) Comm() *Comm { return p.self }

// Now returns the rank's current virtual time.
func (p *Proc) Now() vtime.Time { return p.nic.Now() }

// Advance models local computation taking d of virtual time.
func (p *Proc) Advance(d vtime.Duration) { p.nic.CPU().Add(d) }

// Park blocks the calling goroutine in the library — the one way a library
// call sleeps — until b rings after seen, the b.Rings the caller read
// before it last looked at what it waits for, so no ring is lost. The rank
// releases what its unordered links hold and counts as idle while any of
// its goroutines is parked (one computing meanwhile lets the quiet step run
// early: spurious retransmissions, never a wrong answer); if that idles
// the whole world, the caller steps it first (see World). In a race build
// on Linux, parking while holding a ranked lock panics (internal/lockrank).
func (p *Proc) Park(b *Bell, seen uint64) {
	lockrank.CheckPark()
	p.nic.Endpoint().Flush()
	b.mu.Lock()
	if b.rings.Load() != seen {
		b.mu.Unlock()
		return
	}
	b.parked = append(b.parked, p)
	if p.idle() {
		b.mu.Unlock()
		p.world.quiesce(b, seen)
		b.mu.Lock()
	}
	for b.rings.Load() == seen {
		b.wake.Wait()
	}
	b.mu.Unlock()
}

// idle counts one more of the rank's goroutines parked (or its function
// returned) and reports whether that left no rank in the world running.
func (p *Proc) idle() bool { return p.parkedN.Add(1) == 1 && p.world.running.Add(-1) == 0 }

// unpark undoes one idle.
func (p *Proc) unpark() {
	if p.parkedN.Add(-1) == 0 {
		p.world.running.Add(1)
	}
}

// A Bell is what library calls park on (Proc.Park): an event count. Ring
// bumps the count and wakes every parker, counting each one's rank as
// running at once — before its goroutine has even been scheduled — so the
// world's quiet step never takes a woken rank for an idle one.
type Bell struct {
	rings  atomic.Uint64 // written under mu
	mu     lockrank.Plain
	wake   sync.Cond
	parked []*Proc // the rank of each parked goroutine
}

// NewBell returns a bell for library calls of this world's ranks to park on.
func (p *Proc) NewBell() *Bell { return newBell() }

func newBell() *Bell {
	b := &Bell{}
	b.wake.L = &b.mu
	return b
}

// Rings returns how many times b has rung: read it before looking at what
// a Park waits for.
func (b *Bell) Rings() uint64 { return b.rings.Load() }

// Ring wakes every goroutine parked on b and turns away any Park whose
// seen count predates it.
func (b *Bell) Ring() {
	b.mu.Lock()
	b.rings.Add(1)
	for _, p := range b.parked {
		p.unpark()
	}
	clear(b.parked)
	b.parked = b.parked[:0]
	b.wake.Broadcast()
	b.mu.Unlock()
}

// OnQuiet installs fn (replacing any earlier one) as the rank's
// last-resort event source: with no frame in flight anywhere, the quiet
// step calls each rank's fn in rank order until one reports that it sent
// something. spell numbers the step's passes, one each time the world goes
// quiet again. fn runs on the stepping goroutine and must not block.
func (p *Proc) OnQuiet(fn func(spell uint64) bool) { p.quiet.Store(&fn) }

// Ext returns the per-rank engine registered under key, creating it with
// mk on first use. Layers use it to attach exactly one engine (and one set
// of message handlers) per rank. mk may itself call Ext (a layer attaching
// the layer it builds on), so the lock is not held across it; Ext is meant
// to be called from the rank's own goroutine, where that is race-free.
func (p *Proc) Ext(key string, mk func() any) any {
	p.extMu.Lock()
	if v, ok := p.ext[key]; ok {
		p.extMu.Unlock()
		return v
	}
	p.extMu.Unlock()
	v := mk()
	p.extMu.Lock()
	defer p.extMu.Unlock()
	if existing, ok := p.ext[key]; ok {
		return existing
	}
	p.ext[key] = v
	return v
}

// ExtPeek returns the extension stored under key without creating one —
// the non-allocating counterpart of Ext for cross-rank inspection (a
// rank's observability layer looking up peers' engines must not attach
// fresh ones as a side effect).
func (p *Proc) ExtPeek(key string) (any, bool) {
	p.extMu.Lock()
	defer p.extMu.Unlock()
	v, ok := p.ext[key]
	return v, ok
}

// Alloc carves a region out of the rank's memory, panicking on exhaustion
// (rank memory is bounded by DefaultMemSize).
func (p *Proc) Alloc(size int) memsim.Region {
	return p.mem.MustAlloc(size)
}

// WriteLocal writes data into the rank's own memory at off within region,
// through the rank's scalar unit (cache model applies).
func (p *Proc) WriteLocal(r memsim.Region, off int, data []byte) {
	if !r.Contains(off, len(data)) {
		panic(fmt.Sprintf("runtime: local write [%d,%d) outside region of %d bytes", off, off+len(data), r.Size))
	}
	if err := p.mem.LocalWrite(r.Offset+off, data); err != nil {
		panic(err)
	}
}

// ReadLocal reads n bytes at off within region through the rank's scalar
// unit (cache model applies: on a non-coherent rank this can be stale).
func (p *Proc) ReadLocal(r memsim.Region, off, n int) []byte {
	if !r.Contains(off, n) {
		panic(fmt.Sprintf("runtime: local read [%d,%d) outside region of %d bytes", off, off+n, r.Size))
	}
	buf := make([]byte, n)
	if err := p.mem.LocalRead(r.Offset+off, buf); err != nil {
		panic(err)
	}
	return buf
}

// handlePt2pt enqueues an arrived message for matching. It runs under the
// NIC's delivery token, on whichever goroutine holds it.
func (p *Proc) handlePt2pt(m *simnet.Message, at vtime.Time) {
	p.mu.Lock()
	p.inbox = append(p.inbox, pending{
		src:    m.Src,
		tag:    int(int64(m.Hdr[0])),
		commID: m.Hdr[1],
		data:   m.Payload,
		at:     at,
	})
	p.mu.Unlock()
	p.arrived.Ring()
}

// sendRaw ships data to a world rank under (commID, tag). It is an eager,
// locally blocking send: the data is copied out before return.
func (p *Proc) sendRaw(commID uint64, worldDst, tag int, data []byte) {
	m := &simnet.Message{
		Dst:     worldDst,
		Kind:    kindPt2pt,
		Payload: append([]byte(nil), data...),
	}
	m.Hdr[0] = uint64(int64(tag))
	m.Hdr[1] = commID
	if _, err := p.nic.Send(p.Now(), m); err != nil {
		panic(err)
	}
	p.nic.CPU().AdvanceTo(m.SentAt)
}

// recvRaw blocks until a message matching (commID, worldSrc|AnySource,
// tag|AnyTag) arrives, removes it from the inbox, advances the rank's
// virtual clock to the delivery time, and returns the payload and the
// sender's world rank.
func (p *Proc) recvRaw(commID uint64, worldSrc, tag int) ([]byte, int) {
	p.mu.Lock()
	for {
		seen := p.arrived.Rings()
		for i, msg := range p.inbox {
			if msg.commID != commID {
				continue
			}
			if worldSrc != AnySource && msg.src != worldSrc {
				continue
			}
			if tag != AnyTag && msg.tag != tag {
				continue
			}
			p.inbox = slices.Delete(p.inbox, i, i+1)
			p.mu.Unlock()
			p.nic.CPU().AdvanceTo(msg.at)
			return msg.data, msg.src
		}
		p.mu.Unlock()
		p.Park(p.arrived, seen)
		p.mu.Lock()
	}
}

// Send ships data to world rank dst under tag on the world communicator.
// Unlike Comm.Send it is addressed by world rank directly, so it also
// reaches spare ranks (which live outside the world communicator).
func (p *Proc) Send(dst, tag int, data []byte) { p.sendRaw(p.self.id, dst, tag, data) }

// Recv receives a message from world rank src (or AnySource) under tag (or
// AnyTag) on the world communicator, returning the payload and the
// sender's world rank. Like Send it accepts spare ranks.
func (p *Proc) Recv(src, tag int) ([]byte, int) { return p.recvRaw(p.self.id, src, tag) }

// Barrier synchronizes all world ranks.
func (p *Proc) Barrier() { p.self.Barrier() }
