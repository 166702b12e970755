package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// Operation batching and notified completion.
//
// The paper's interface charges every put its full injection cost: one
// wire message per operation, each paying the per-message software
// overhead o and injection gap g of the LogGP model. Real RMA stacks that
// scale (foMPI on Cray DMAPP, UNR) aggregate small operations at the
// origin and track completion with delivery counters rather than explicit
// probe round-trips. This file adds both, behind Options.BatchOps:
//
//   - An issue ring per (origin, target) pair coalesces small puts and
//     accumulates into one aggregated kBatch message — one injection
//     (o + g paid once) for up to BatchOps operations. The target unpacks
//     the aggregate and applies each member through the normal
//     serialization paths, so atomicity and ordering semantics are those
//     of the member operations, not of the envelope.
//   - Counter-based notified completion: every target→origin report (ack,
//     probe answer, get/RMW reply, and the kNotify message a batch or an
//     AttrNotify operation generates) carries the target's cumulative
//     applied-operation count for this origin. The origin folds these into
//     confirmed[target] with max(), which is monotone and idempotent, so
//     reports may arrive in any order. Complete then finishes locally when
//     the counters already cover everything issued — no probe round-trip.
//
// A ring member is framed, counted and packed by the issue path every
// operation takes (issue, xfer.go), as
//
//	flags accOp uvarint(handle) uvarint(disp) uvarint(tcount) head uvarint(len wire) wire
//
// where head is the put head a kPut body opens with. The origin data is
// packed once, in place, into the ring's aggregate buffer; a flush writes
// the member count in front and hands that buffer over as the aggregate's
// payload. Buffers are recycled (batchBufs): the target hands one back
// after its last member is applied (both ends of the simulated wire live
// in one process).

// issueRing accumulates the batchable operations bound for one target
// (originTarget.ring), as the aggregate message they will travel in.
type issueRing struct {
	max     int        // the most members one aggregate carries (Options.BatchOps)
	head    int        // bytes reserved ahead of the frames for the member count
	buf     []byte     // the count reservation, then member frames; nil when empty
	reqs    []*Request // members, in ring order
	remote  []uint64   // ids of the members that complete on the aggregate's notification
	bytes   int        // accumulated packed payload
	ordered bool       // some member carries AttrOrdering
}

// pendingBatch routes a batch's notification to the remote-completion
// requests of its member operations, by id: they wait in the slab, where
// the failure fan-out finds them. target lets it drop the batches that
// will never be notified.
type pendingBatch struct {
	target int
	ids    []uint64
}

// Batch payload op flags.
const (
	batchFlagAtomic  = 1 << 0
	batchFlagOrdered = 1 << 1 // member carried AttrOrdering (semantic-checker metadata)
)

// batchBufs recycles aggregate-message payload buffers, process-wide. A
// ring packs into one; the target returns it after the last member has
// been applied.
var batchBufs = freeList[[]byte]{limit: freeListCap}

// add appends op's member frame to the aggregate and has pack fill its
// packed bytes of wire data in place. On a pack failure the ring is left
// as it was.
func (r *issueRing) add(op *wireOp, req *Request, packed int, pack func(wire []byte) error) error {
	if r.buf == nil {
		r.head = uvarintLen(uint64(r.max))
		r.buf = slices.Grow(batchBufs.get()[:0], r.head)[:r.head]
	}
	flags := byte(0)
	if op.atomic {
		flags |= batchFlagAtomic
	}
	if op.ordered {
		flags |= batchFlagOrdered
	}
	b := append(r.buf, flags, byte(op.accOp))
	b = binary.AppendUvarint(b, op.handle)
	b = binary.AppendUvarint(b, uint64(op.disp))
	b = binary.AppendUvarint(b, uint64(op.tcount))
	b = appendPutHead(b, op.tdt, op.accOp, op.scale)
	b = binary.AppendUvarint(b, uint64(packed))
	b = slices.Grow(b, packed)[:len(b)+packed]
	if err := pack(b[len(b)-packed:]); err != nil {
		r.buf = b[:len(r.buf)]
		return err
	}
	r.buf = b
	r.reqs = append(r.reqs, req)
	r.bytes += packed
	r.ordered = r.ordered || op.ordered
	return nil
}

// seal writes the member count in front of the frames and returns the
// aggregate's payload, emptying the ring. A count shorter than the
// reservation closes the gap, so the payload is exactly the count and the
// frames.
func (r *issueRing) seal() []byte {
	n, buf := uvarintLen(uint64(len(r.reqs))), r.buf
	if n < r.head {
		buf = append(buf[:n], buf[r.head:]...)
	}
	binary.PutUvarint(buf, uint64(len(r.reqs)))
	r.buf, r.reqs, r.remote, r.bytes, r.ordered = nil, nil, nil, 0, false
	return buf
}

// batchable reports whether an operation may ride the issue ring: batching
// enabled, a put or accumulate, nonblocking, not under the coarse-grain
// lock protocol (which serializes whole operations origin-side), and small
// enough that aggregation pays.
func (e *Engine) batchable(op OpType, attrs Attr, packed int) bool {
	if e.opts.BatchOps <= 0 {
		return false
	}
	if op != OpPut && op != OpAccumulate {
		return false
	}
	if attrs&AttrBlocking != 0 {
		return false
	}
	if attrs&AttrAtomic != 0 && e.targetUsesCoarseLock() {
		return false
	}
	return packed <= DefaultBatchBytes
}

// flushTarget transmits the target's pending issue ring, if any, as one
// aggregated wire message. It is a no-op when batching is disabled or the
// ring is empty. Callers must not hold e.mu.
func (e *Engine) flushTarget(world int) {
	if e.opts.BatchOps <= 0 {
		return
	}
	e.mu.Lock()
	ts := e.targets[world]
	if ts == nil || len(ts.ring.reqs) == 0 {
		e.mu.Unlock()
		return
	}
	ring := &ts.ring
	var seq uint64
	if ring.ordered && !e.proc.NIC().Endpoint().Ordered() {
		ts.orderSeq++
		seq = ts.orderSeq
	}
	// Aggregate ids come from the request sequence, not a separate
	// counter: trace spans key on (origin, id), and a batch envelope must
	// not share an id with any member request.
	e.reqSeq++
	id := e.reqSeq
	// Members were all issued under the current epoch: flushTarget runs
	// before Order/Complete advance it, so the envelope's stamp speaks
	// for every member.
	epoch := ts.chkEpoch
	reqs, remote := ring.reqs, ring.remote
	payload := ring.seal()
	e.mu.Unlock()

	if len(remote) > 0 {
		// Registered before the send so the notification cannot race past.
		e.cmplMu.Lock()
		e.pendingBatches[id] = &pendingBatch{target: world, ids: remote}
		e.cmplMu.Unlock()
	}

	m := e.newMsg(world, kBatch, 0)
	m.Hdr[hReq] = id
	m.Hdr[hCount] = uint64(len(reqs))
	m.Hdr[hMeta] = (epoch & 0xffffffff) << 32
	m.Hdr[hSeq] = seq
	m.Ops = len(reqs)
	m.Payload = payload
	if _, err := e.proc.NIC().Send(e.proc.Now(), &m.Message); err != nil {
		// Either the world is shutting down or the link has failed; the
		// aggregate is lost, but nothing may be left hanging on it.
		e.cmplMu.Lock()
		delete(e.pendingBatches, id)
		e.cmplMu.Unlock()
		if !errors.Is(err, ErrLinkFailed) {
			err = nil
		} else {
			err = fmt.Errorf("core: batch to rank %d: %w", world, err)
		}
		for _, r := range remote {
			e.settle(r, e.proc.Now(), err)
		}
		return
	}
	e.proc.NIC().CPU().AdvanceTo(m.SentAt)
	e.Batches.Inc()
	// One pack event per member links the member's request id to the
	// aggregate id, so a span can be followed from enqueue through the
	// shared wire message to its per-member apply.
	for i, r := range reqs {
		e.emit(trace.KindPack, m.SentAt, world, r.id, int64(id), int64(i))
	}
	e.emit(trace.KindBatch, m.SentAt, world, id, int64(len(reqs)), int64(m.ArriveAt))
	// The member slice serves the ring's next aggregate, unless members
	// have joined it meanwhile.
	clear(reqs)
	e.mu.Lock()
	if ring.reqs == nil {
		ring.reqs = reqs[:0]
	}
	e.mu.Unlock()
}

// Flush transmits every pending issue ring of this rank (the request-batch
// flush of the notified-completion interface). A no-op when batching is
// disabled or nothing is pending.
func (e *Engine) Flush() {
	if e.opts.BatchOps <= 0 {
		return
	}
	e.mu.Lock()
	var worlds []int
	for w, ts := range e.targets {
		if len(ts.ring.reqs) > 0 {
			worlds = append(worlds, w)
		}
	}
	e.mu.Unlock()
	sort.Ints(worlds)
	for _, w := range worlds {
		e.flushTarget(w)
	}
}

// wireOp is one put or accumulate as the target applies it: a decoded
// member of an aggregate message, or the body of a single kPut. At the
// origin a ring member is one too, its wire data not packed yet.
type wireOp struct {
	handle  uint64
	disp    int
	tcount  int
	accOp   AccOp
	atomic  bool
	ordered bool
	scale   float64
	tdt     datatype.Type
	wire    []byte // canonical packed data; at the target it aliases the message payload
}

// batchUvarint reads one bounded uvarint field from p.
func batchUvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: truncated batch %s", what)
	}
	if v >= 1<<62 {
		return 0, nil, fmt.Errorf("core: batch %s %d out of range", what, v)
	}
	return v, p[n:], nil
}

// decodeBatch parses an aggregate payload into its member operations.
// Member wire slices alias p; the caller owns p until every member has
// been applied.
func decodeBatch(p []byte) ([]wireOp, error) {
	count, p, err := batchUvarint(p, "count")
	if err != nil {
		return nil, err
	}
	if count > uint64(len(p)) {
		return nil, fmt.Errorf("core: batch claims %d ops in %d bytes", count, len(p))
	}
	ops := make([]wireOp, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(p) < 2 {
			return nil, fmt.Errorf("core: truncated batch op header")
		}
		var op wireOp
		op.atomic = p[0]&batchFlagAtomic != 0
		op.ordered = p[0]&batchFlagOrdered != 0
		op.accOp = AccOp(p[1])
		if op.accOp > AccAxpy {
			return nil, fmt.Errorf("core: batch op has unknown accumulate op %d", p[1])
		}
		p = p[2:]
		var v uint64
		if op.handle, p, err = batchUvarint(p, "handle"); err != nil {
			return nil, err
		}
		if v, p, err = batchUvarint(p, "displacement"); err != nil {
			return nil, err
		}
		op.disp = int(v)
		if v, p, err = batchUvarint(p, "count"); err != nil {
			return nil, err
		}
		op.tcount = int(v)
		if op.tdt, op.scale, p, err = parsePutHead(p, op.accOp); err != nil {
			return nil, err
		}
		if v, p, err = batchUvarint(p, "payload length"); err != nil {
			return nil, err
		}
		if v > uint64(len(p)) {
			return nil, fmt.Errorf("core: batch payload of %d bytes exceeds remaining %d", v, len(p))
		}
		op.wire = p[:v:v]
		p = p[v:]
		ops = append(ops, op)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("core: batch has %d trailing bytes", len(p))
	}
	return ops, nil
}

// batchTrack follows the application of an aggregate's members and emits
// exactly one notification (and one payload-pool return) when the last one
// lands.
type batchTrack struct {
	e        *Engine
	src      int
	id       uint64
	payload  []byte
	software bool // some member applied by software (atomic serializer)

	mu        sync.Mutex
	remaining int
	count     int64
	end       vtime.Time
}

// opDone records one member application; the last one sends the batch
// notification carrying the highest cumulative applied count observed.
func (t *batchTrack) opDone(count int64, end vtime.Time) {
	t.mu.Lock()
	if count > t.count {
		t.count = count
	}
	t.end = vtime.Later(t.end, end)
	t.remaining--
	last := t.remaining == 0
	count, end = t.count, t.end
	t.mu.Unlock()
	if !last {
		return
	}
	batchBufs.put(t.payload)
	t.e.sendNotify(t.src, t.id, count, end, t.software)
}

// sendNotify ships a delivery-counter notification. Like remote-completion
// acks it rides the NIC-generated path when the hardware observed the
// deposit, and the CPU path when software (the atomic serializer) applied
// it.
func (e *Engine) sendNotify(dst int, id uint64, count int64, at vtime.Time, software bool) {
	m := e.newMsg(dst, kNotify, 0)
	m.Hdr[hReq] = id
	m.Hdr[hCount] = uint64(count)
	e.sendAck(at, m, software)
}

// appliedCount returns the cumulative applied-operation count for src.
func (e *Engine) appliedCount(src int) int64 {
	e.tgtMu.Lock()
	defer e.tgtMu.Unlock()
	return e.applied[src].count
}

// startBatch unpacks the aggregate into one record per member and
// schedules each; the envelope's own record is finished with.
func (r *applyOp) startBatch(at vtime.Time) {
	e, m := r.e, r.m
	ops, err := decodeBatch(m.Payload)
	switch {
	case err != nil:
		// Malformed aggregate: the members are lost, but they must
		// still count toward completion thresholds or the origin's
		// Complete would hang. Hdr[hCount] carries the origin's claim.
		e.proc.NIC().BadReq.Inc()
		count := e.appliedCount(m.Src)
		for i := uint64(0); i < m.Hdr[hCount]; i++ {
			count = e.noteApplied(m.Src, at)
		}
		e.sendNotify(m.Src, m.Hdr[hReq], count, at, true)
	case len(ops) == 0:
		e.sendNotify(m.Src, m.Hdr[hReq], e.appliedCount(m.Src), at, true)
	default:
		track := &batchTrack{e: e, src: m.Src, id: m.Hdr[hReq], payload: m.Payload, remaining: len(ops)}
		for i := range ops {
			if ops[i].atomic {
				track.software = true
			}
			// The member's counter bump (and, once all members are done,
			// the batch notification) is the completion bookkeeping fin
			// holds back until the buddy has its bytes.
			mr := e.takeOp(m)
			mr.wireOp, mr.member, mr.track = ops[i], i, track
			mr.exp = e.lookupExposure(mr.handle)
			e.scheduleApplyRange(mr, at, len(mr.wire), datatype.ExtentOf(mr.tcount, mr.tdt))
		}
	}
	r.fin(at)
}

// handleNotify completes any remote-completion members of the batch a
// delivery-counter report answers, then folds the report into the origin's
// confirmation state (see handleGetReply for the order).
func (e *Engine) handleNotify(m *simnet.Message, at vtime.Time) {
	e.Notifies.Inc()
	e.emit(trace.KindNotify, at, m.Src, m.Hdr[hReq], int64(m.Hdr[hCount]), 0)
	if id := m.Hdr[hReq]; id != 0 {
		e.cmplMu.Lock()
		pb := e.pendingBatches[id]
		delete(e.pendingBatches, id)
		e.cmplMu.Unlock()
		if pb != nil {
			for _, r := range pb.ids {
				e.settle(r, at, nil)
			}
		}
	}
	e.noteConfirmed(m.Src, int64(m.Hdr[hCount]), at)
	e.consume(m)
}

// noteConfirmed raises the origin-side cumulative confirmation counter for
// a target. Reports carry cumulative counts and are folded with max(), so
// duplicates and reordering are harmless: only a fold that raised the
// counter wakes waiters or emits.
func (e *Engine) noteConfirmed(target int, count int64, at vtime.Time) {
	if count <= 0 {
		return
	}
	e.cmplMu.Lock()
	if count <= e.confirmed[target].count {
		e.cmplMu.Unlock()
		return
	}
	ready := e.confirmed[target].raise(count, at)
	e.cmplMu.Unlock()
	wakeAll(ready, count, at)
	e.emit(trace.KindConfirm, at, target, 0, count, 0)
}
