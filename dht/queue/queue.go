// Package queue is a global MPMC task queue on one-sided RMA: any rank
// enqueues, any rank dequeues, and the queue's owner rank never runs a
// line of queue code — claims ride fetch-and-add tickets and slot handoff
// rides per-slot sequence words (the Vyukov bounded-queue discipline
// lifted onto RMA).
//
// Layout, all on the owner's exposed region:
//
//	off 0   tail ticket   (FetchAdd by producers)
//	off 8   head ticket   (FetchAdd by consumers)
//	off 16  slots[i] = [ seq int64 | payload SlotSize bytes ]
//
// A handoff is six RMA operations plus polls. A producer claims ticket t,
// polls its slot's sequence word until it reads t (free for this lap),
// and publishes [t+1 | payload] with one put. A consumer claims ticket h,
// polls with one blocking Get of the whole slot until its sequence word
// reads h+1 — the payload in the same buffer is then the item, since a
// put and a get at one target never interleave — and frees the slot for
// the next lap with seq=h+slots. Each side completes before returning.
// Both puts are blocking, so they take no request: each is done at its
// send, as MPI_Put is, and the Complete is what the caller waits on.
// Sequence words are monotone per slot, so a late or reordered frame can
// never alias a lap. They are stored in the owner's byte order, the order
// its FetchWord reads them in, so ranks of either order share one queue.
//
// Waiting is remote polling with exponential virtual-time backoff —
// deterministic, since every poll is serialized at the target in virtual
// time. In the steady state a handoff allocates nothing: Dequeue returns
// a slice of the handle's own buffer, valid until the handle's next call.
package queue

import (
	"fmt"
	gort "runtime"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

const (
	tailOff  = 0
	headOff  = 8
	slotsOff = 16
)

// Stats is a snapshot of one queue handle's client-side counters.
type Stats struct {
	Enqueues, Dequeues int64
	ProducerPolls      int64 // remote seq polls while waiting for a free slot
	ConsumerPolls      int64 // remote seq polls while waiting for an item
}

// Queue is one rank's handle. Like the rest of the rma surface a handle
// belongs to its rank's process function and is not safe for concurrent
// use.
type Queue struct {
	s *rma.Session
	p *runtime.Proc

	owner    rma.TargetMem // the owner rank's region: tickets + slots
	slots    int
	slotSize int
	stride   int // 8 + slotSize

	// buf is a slot image, [seq | payload], for publishing puts and polling
	// gets; its first word also carries the freeing put.
	buf  rma.Region
	word [8]byte // host-side encoding of buf's first word
	item []byte  // what Dequeue returns

	enqueues, dequeues stats.Counter
	producerPolls      stats.Counter
	consumerPolls      stats.Counter
}

// New builds a queue handle collectively: every compute rank calls it
// with the same owner, slots, and slotSize. The owner's region holds the
// tickets and the slot array. The owner pre-seeds the slot sequence words
// (seq[i] = i) before the barrier that makes the queue usable.
func New(s *rma.Session, owner, slots, slotSize int) (*Queue, error) {
	p := s.Proc()
	if owner < 0 || owner >= p.Size() {
		return nil, fmt.Errorf("queue: owner rank %d out of range [0,%d): %w", owner, p.Size(), rma.ErrBadHandle)
	}
	if slots <= 0 || slotSize <= 0 {
		return nil, fmt.Errorf("queue: slots and slot size must be positive (got %d, %d): %w", slots, slotSize, rma.ErrBadHandle)
	}
	stride := 8 + slotSize
	tms, local, err := s.ExposeCollective(slotsOff + slots*stride)
	if err != nil {
		return nil, err
	}
	q := &Queue{
		s:        s,
		p:        p,
		owner:    tms[owner],
		slots:    slots,
		slotSize: slotSize,
		stride:   stride,
		buf:      p.Alloc(stride),
		item:     make([]byte, slotSize),
	}
	if p.Rank() == owner {
		// Seed seq[i] = i: lap 0 producers find their slots free without
		// any traffic. Local writes, before anyone can race them.
		for i := 0; i < slots; i++ {
			q.owner.Order.PutUint64(q.word[:], uint64(i))
			p.WriteLocal(local, slotsOff+i*stride, q.word[:])
		}
	}
	p.Barrier()
	q.registerMetrics()
	return q, nil
}

func (q *Queue) registerMetrics() {
	reg := q.s.Engine().Metrics()
	if reg == nil {
		return
	}
	_ = reg.Register("queue.enqueues", &q.enqueues)
	_ = reg.Register("queue.dequeues", &q.dequeues)
	_ = reg.Register("queue.producer_polls", &q.producerPolls)
	_ = reg.Register("queue.consumer_polls", &q.consumerPolls)
}

// Slots returns the queue capacity.
func (q *Queue) Slots() int { return q.slots }

// SlotSize returns the fixed payload length.
func (q *Queue) SlotSize() int { return q.slotSize }

// Stats snapshots the handle's client-side counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Enqueues: q.enqueues.Value(), Dequeues: q.dequeues.Value(),
		ProducerPolls: q.producerPolls.Value(), ConsumerPolls: q.consumerPolls.Value(),
	}
}

func (q *Queue) slotOff(ticket int64) int {
	return slotsOff + int(ticket%int64(q.slots))*q.stride
}

// setWord writes v into buf's first word, in the owner's byte order: the
// order its FetchWord reads the word in.
func (q *Queue) setWord(v int64) {
	q.owner.Order.PutUint64(q.word[:], uint64(v))
	q.p.WriteLocal(q.buf, 0, q.word[:])
}

// publish puts the first n bytes of buf, with v as their sequence word, at
// slot offset off and completes them. The put is blocking and not
// remote-complete, so it is done at its send and takes no request; it is
// notified, so the Complete waits on the owner's delivery counter instead
// of probing.
func (q *Queue) publish(off, n int, v int64) error {
	q.setWord(v)
	if _, err := q.s.Put(q.buf, n, rma.Byte, q.owner, off, rma.WithNotify(), rma.WithBlocking()); err != nil {
		return err
	}
	return q.s.Complete(q.owner.Owner)
}

// backoff advances virtual time exponentially between polls, capped at
// about one network round trip. Polls serialize at the owner with the
// very puts they await, so the number of polls per handoff is set by the
// protocol, not the backoff — backing off past the RTT only coarsens the
// wait granularity and inflates modelled latency without saving a single
// remote operation (measured: polls/item is flat from 100ns to 800us
// caps, while modelled drain time scales with the cap). It also yields the
// host core: the peer being waited for needs it to make the poll succeed.
func (q *Queue) backoff(attempt int) {
	d := vtime.Duration(100 * (1 << min(attempt, 4)))
	q.p.Advance(d)
	gort.Gosched()
}

// Enqueue publishes payload (exactly SlotSize bytes). It blocks while the
// queue is full, polling the slot's sequence word.
func (q *Queue) Enqueue(payload []byte) error {
	if len(payload) != q.slotSize {
		return fmt.Errorf("queue: payload is %d bytes, slots hold %d: %w", len(payload), q.slotSize, rma.ErrType)
	}
	t, err := q.s.FetchAdd(q.owner, tailOff, 1)
	if err != nil {
		return err
	}
	off := q.slotOff(t)

	// The slot's sequence word reaches t exactly when the previous lap's
	// consumer freed it (seed: seq[i]=i for lap 0).
	for attempt := 0; ; attempt++ {
		seq, err := q.s.FetchWord(q.owner, off)
		if err != nil {
			return err
		}
		if seq == t {
			break
		}
		q.producerPolls.Inc()
		q.backoff(attempt)
	}

	// One put lands seq=t+1 with the payload: no reader sees one alone.
	q.p.WriteLocal(q.buf, 8, payload)
	if err := q.publish(off, q.stride, t+1); err != nil {
		return err
	}
	q.enqueues.Inc()
	return nil
}

// Dequeue claims the next item and blocks until it is published,
// returning its payload. Claims are tickets: with fewer items than
// waiting consumers, the surplus consumers block until matching items
// arrive. The payload is a slice of the handle's own buffer, valid until
// the handle's next call, which overwrites it: a caller that keeps an item
// copies it.
func (q *Queue) Dequeue() ([]byte, error) {
	h, err := q.s.FetchAdd(q.owner, headOff, 1)
	if err != nil {
		return nil, err
	}
	off := q.slotOff(h)

	// Wait for the producer's publication: seq words are monotone per
	// slot, and only ticket h's producer ever writes h+1.
	for attempt := 0; ; attempt++ {
		_, err := q.s.Get(q.buf, q.stride, rma.Byte, q.owner, off, rma.WithBlocking())
		if err == nil {
			err = q.p.Mem().LocalRead(q.buf.Offset, q.word[:])
		}
		if err != nil {
			return nil, err
		}
		if int64(q.owner.Order.Uint64(q.word[:])) == h+1 {
			break
		}
		q.consumerPolls.Inc()
		q.backoff(attempt)
	}
	if err := q.p.Mem().LocalRead(q.buf.Offset+8, q.item); err != nil {
		return nil, err
	}

	// Free the slot for the next lap (seq = h+slots).
	if err := q.publish(off, 8, h+int64(q.slots)); err != nil {
		return nil, err
	}
	q.dequeues.Inc()
	return q.item, nil
}
