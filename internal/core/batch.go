package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
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
// Buffers are pooled (sync.Pool): the packed wire form of each ring
// operation, and the encoded payload of the aggregate itself, which the
// target hands back after the last member is applied (both ends of the
// simulated wire live in one process).

// batchOp is one ring-held operation awaiting aggregation: the wireOp the
// target will decode (wire is the packed origin data, pooled; the target
// datatype travels encoded in dt, tdt stays nil) plus its request.
type batchOp struct {
	wireOp
	dt  []byte // encoded target datatype
	req *Request
	rc  bool // member wants remote completion (completes on batch notify)
}

// issueRing accumulates batchable operations bound for one target.
type issueRing struct {
	ops     []batchOp
	bytes   int  // accumulated packed payload
	ordered bool // some member carries AttrOrdering
}

// pendingBatch routes a batch's notification to the remote-completion
// requests of its member operations. target lets a link failure find and
// fail the batches that will never be notified.
type pendingBatch struct {
	target int
	reqs   []*Request
}

// Batch payload op flags.
const (
	batchFlagAtomic  = 1 << 0
	batchFlagOrdered = 1 << 1 // member carried AttrOrdering (semantic-checker metadata)
)

// wirePool recycles the packed-data buffers of ring operations.
var wirePool sync.Pool

// wireBuf returns a length-n buffer, reusing pooled storage when large
// enough.
func wireBuf(n int) []byte {
	if v := wirePool.Get(); v != nil {
		if b := v.([]byte); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// batchBufPool recycles aggregate-message payload buffers. The origin
// encodes into one; the target returns it after the last member has been
// applied.
var batchBufPool = sync.Pool{New: func() any { return []byte(nil) }}

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
	return packed <= e.opts.BatchBytes
}

// appendBatch adds a validated put/accumulate to the target's issue ring,
// flushing when the ring reaches the configured op or byte bound. The
// origin data is packed immediately, so the origin buffer is reusable on
// return and non-remote-complete members complete at once.
func (e *Engine) appendBatch(accOp AccOp, scale float64, origin memsim.Region, ocount int, odt datatype.Type, tm TargetMem, tdisp, tcount int, tdt datatype.Type, attrs Attr) (*Request, error) {
	// A sticky failure means the aggregate could never be delivered or
	// notified. The singleton path surfaces this at issue (the relay
	// refuses senders to failed links); surfacing it here too keeps the
	// batched path from parking a request in a ring whose failing flush
	// may be arbitrarily far away — a lost wakeup for Await/Done/OnDone.
	if err := e.stickyFor(tm.Owner); err != nil {
		return nil, fmt.Errorf("core: batch to rank %d: %w", tm.Owner, err)
	}
	wire := wireBuf(datatype.PackedSize(ocount, odt))
	if err := e.packFrom(wire, origin.Offset, ocount, odt, false); err != nil {
		wirePool.Put(wire)
		return nil, err
	}
	latKind := latPut
	if accOp != AccNone {
		latKind = latAcc
	}
	req := e.newRequest(tm.Owner, latKind)
	bop := batchOp{
		wireOp: wireOp{
			handle:  tm.Handle,
			disp:    tdisp,
			tcount:  tcount,
			accOp:   accOp,
			atomic:  attrs&AttrAtomic != 0,
			ordered: attrs&AttrOrdering != 0,
			scale:   scale,
			wire:    wire,
		},
		dt:  datatype.Encode(tdt),
		req: req,
		rc:  attrs&AttrRemoteComplete != 0,
	}

	target := tm.Owner
	e.mu.Lock()
	ts := e.targetLocked(target)
	ts.sent++
	ts.batched++
	ts.willConfirm++ // the batch always notifies
	ring := e.rings[target]
	if ring == nil {
		ring = &issueRing{}
		e.rings[target] = ring
	}
	ring.ops = append(ring.ops, bop)
	ring.bytes += len(wire)
	if attrs&AttrOrdering != 0 {
		ring.ordered = true
	}
	full := len(ring.ops) >= e.opts.BatchOps || ring.bytes >= e.opts.BatchBytes
	e.mu.Unlock()

	e.OpsIssued.Inc()
	e.BatchedOps.Inc()
	e.emit(trace.KindEnqueue, e.proc.Now(), target, req.id, int64(len(wire)), 0)
	if !bop.rc {
		// Local completion: the data has been packed out of the origin
		// buffer already.
		req.complete(e.proc.Now(), nil)
	}
	if full {
		e.flushTarget(target)
	}
	return req, nil
}

// flushTarget transmits the target's pending issue ring, if any, as one
// aggregated wire message. It is a no-op when batching is disabled or the
// ring is empty. Callers must not hold e.mu.
func (e *Engine) flushTarget(world int) {
	if e.opts.BatchOps <= 0 {
		return
	}
	e.mu.Lock()
	ring := e.rings[world]
	if ring == nil || len(ring.ops) == 0 {
		e.mu.Unlock()
		return
	}
	ops := ring.ops
	ring.ops = nil
	ring.bytes = 0
	ordered := ring.ordered
	ring.ordered = false
	var seq uint64
	if ordered && !e.proc.NIC().Endpoint().Ordered() {
		ts := e.targetLocked(world)
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
	epoch := e.targetLocked(world).chkEpoch
	e.mu.Unlock()

	buf := batchBufPool.Get().([]byte)[:0]
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	var rcReqs []*Request
	for i := range ops {
		op := &ops[i]
		flags := byte(0)
		if op.atomic {
			flags |= batchFlagAtomic
		}
		if op.ordered {
			flags |= batchFlagOrdered
		}
		buf = append(buf, flags, byte(op.accOp))
		buf = binary.AppendUvarint(buf, op.handle)
		buf = binary.AppendUvarint(buf, uint64(op.disp))
		buf = binary.AppendUvarint(buf, uint64(op.tcount))
		if op.accOp == AccAxpy {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(op.scale))
		}
		buf = binary.AppendUvarint(buf, uint64(len(op.dt)))
		buf = append(buf, op.dt...)
		buf = binary.AppendUvarint(buf, uint64(len(op.wire)))
		buf = append(buf, op.wire...)
		wirePool.Put(op.wire)
		op.wire = nil
		if op.rc {
			rcReqs = append(rcReqs, op.req)
		}
	}
	if len(rcReqs) > 0 {
		// Registered before the send so the notification cannot race past.
		e.cmplMu.Lock()
		e.pendingBatches[id] = &pendingBatch{target: world, reqs: rcReqs}
		e.cmplMu.Unlock()
	}

	m := newMsg(world, kBatch, 0)
	m.Hdr[hReq] = id
	m.Hdr[hCount] = uint64(len(ops))
	m.Hdr[hMeta] = (epoch & 0xffffffff) << 32
	m.Hdr[hSeq] = seq
	m.Ops = len(ops)
	m.Payload = buf
	if _, err := e.proc.NIC().Send(e.proc.Now(), m); err != nil {
		// Either the world is shutting down or the link has failed; the
		// aggregate is lost, but nothing may be left hanging on it.
		e.cmplMu.Lock()
		delete(e.pendingBatches, id)
		e.cmplMu.Unlock()
		for _, r := range rcReqs {
			if errors.Is(err, ErrLinkFailed) {
				r.completeErr(e.proc.Now(), fmt.Errorf("core: batch to rank %d: %w", world, err))
			} else {
				r.complete(e.proc.Now(), nil)
			}
		}
		return
	}
	e.proc.NIC().CPU().AdvanceTo(m.SentAt)
	e.Batches.Inc()
	// One pack event per member links the member's request id to the
	// aggregate id, so a span can be followed from enqueue through the
	// shared wire message to its per-member apply.
	for i := range ops {
		e.emit(trace.KindPack, m.SentAt, world, ops[i].req.id, int64(id), int64(i))
	}
	e.emit(trace.KindBatch, m.SentAt, world, id, int64(len(ops)), int64(m.ArriveAt))
}

// Flush transmits every pending issue ring of this rank (the request-batch
// flush of the notified-completion interface). A no-op when batching is
// disabled or nothing is pending.
func (e *Engine) Flush() {
	if e.opts.BatchOps <= 0 {
		return
	}
	e.mu.Lock()
	worlds := make([]int, 0, len(e.rings))
	for w, r := range e.rings {
		if len(r.ops) > 0 {
			worlds = append(worlds, w)
		}
	}
	e.mu.Unlock()
	sort.Ints(worlds)
	for _, w := range worlds {
		e.flushTarget(w)
	}
}

// PutNotify is Put with the Notify attribute: a notified put whose
// application the target reports back on a cumulative delivery counter
// (the UNR-style notified operation), feeding the Complete fast path.
func (e *Engine) PutNotify(origin memsim.Region, ocount int, odt datatype.Type, tm TargetMem, tdisp, tcount int, tdt datatype.Type, trank int, comm *runtime.Comm, attrs Attr) (*Request, error) {
	return e.xfer(OpPut, AccNone, 0, origin, ocount, odt, tm, tdisp, tcount, tdt, trank, comm, attrs|AttrNotify)
}

// wireOp is one put or accumulate as the target applies it: a decoded
// member of an aggregate message, or the body of a single kPut.
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
		op.scale = 1
		if op.accOp == AccAxpy {
			if len(p) < 8 {
				return nil, fmt.Errorf("core: truncated batch axpy scale")
			}
			op.scale = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
		if v, p, err = batchUvarint(p, "datatype length"); err != nil {
			return nil, err
		}
		if v > uint64(len(p)) {
			return nil, fmt.Errorf("core: batch datatype of %d bytes exceeds remaining %d", v, len(p))
		}
		dt, used, err := datatype.Decode(p[:v])
		if err != nil {
			return nil, err
		}
		if used != int(v) {
			return nil, fmt.Errorf("core: batch datatype frame has %d trailing bytes", int(v)-used)
		}
		op.tdt = dt
		p = p[v:]
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
	batchBufPool.Put(t.payload)
	t.e.sendNotify(t.src, t.id, count, end, t.software)
}

// sendNotify ships a delivery-counter notification. Like remote-completion
// acks it rides the NIC-generated path when the hardware observed the
// deposit, and the CPU path when software (the atomic serializer) applied
// it.
func (e *Engine) sendNotify(dst int, id uint64, count int64, at vtime.Time, software bool) {
	m := newMsg(dst, kNotify, 0)
	m.Hdr[hReq] = id
	m.Hdr[hCount] = uint64(count)
	if !software && e.proc.NIC().HardwareAcks() {
		e.sendReplyNIC(at, m)
	} else {
		e.sendReply(at, m)
	}
}

// appliedCount returns the cumulative applied-operation count for src.
func (e *Engine) appliedCount(src int) int64 {
	e.tgtMu.Lock()
	defer e.tgtMu.Unlock()
	return e.applied[src].count
}

// handleBatch receives an aggregate message; its members are applied
// through the normal serialization paths and one notification answers the
// whole batch.
func (e *Engine) handleBatch(m *simnet.Message, at vtime.Time) {
	e.gateOrdered(e.takeOp(m), at)
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
			for _, r := range pb.reqs {
				r.complete(at, nil)
			}
		}
	}
	e.noteConfirmed(m.Src, int64(m.Hdr[hCount]), at)
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
