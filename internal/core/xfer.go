package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/trace"
)

// Put transfers origin data into target memory (the paper's MPI_RMA_put).
// origin is a region of this rank's memory holding ocount instances of
// odt; the data lands at byte displacement tdisp of tm, laid out as tcount
// instances of tdt. trank names the target within comm and must match
// tm.Owner. attrs selects the operation's attributes; the communicator and
// engine defaults are ORed in.
//
// Without AttrBlocking, Put returns a Request; with it, Put completes the
// operation before returning (AttrBlocking says what it returns then).
func (e *Engine) Put(origin memsim.Region, ocount int, odt datatype.Type, tm TargetMem, tdisp, tcount int, tdt datatype.Type, trank int, comm *runtime.Comm, attrs Attr) (*Request, error) {
	return e.xfer(OpPut, AccNone, 0, origin, ocount, odt, tm, tdisp, tcount, tdt, trank, comm, attrs)
}

// Get transfers target memory into origin memory (the paper's
// MPI_RMA_get). The request completes when the data has arrived in the
// origin region.
func (e *Engine) Get(origin memsim.Region, ocount int, odt datatype.Type, tm TargetMem, tdisp, tcount int, tdt datatype.Type, trank int, comm *runtime.Comm, attrs Attr) (*Request, error) {
	return e.xfer(OpGet, AccNone, 0, origin, ocount, odt, tm, tdisp, tcount, tdt, trank, comm, attrs)
}

// Accumulate combines origin data into target memory with op. Elementwise
// updates are always atomic per element; set AttrAtomic for atomicity of
// the whole operation against other atomic operations.
func (e *Engine) Accumulate(op AccOp, origin memsim.Region, ocount int, odt datatype.Type, tm TargetMem, tdisp, tcount int, tdt datatype.Type, trank int, comm *runtime.Comm, attrs Attr) (*Request, error) {
	if op == AccNone {
		op = AccReplace
	}
	return e.xfer(OpAccumulate, op, 1, origin, ocount, odt, tm, tdisp, tcount, tdt, trank, comm, attrs)
}

// AccumulateAxpy performs the ARMCI-style axpy accumulate:
// target = scale*origin + target, over float64 (daxpy) or float32 (saxpy)
// elements.
func (e *Engine) AccumulateAxpy(scale float64, origin memsim.Region, ocount int, odt datatype.Type, tm TargetMem, tdisp, tcount int, tdt datatype.Type, trank int, comm *runtime.Comm, attrs Attr) (*Request, error) {
	return e.xfer(OpAccumulate, AccAxpy, scale, origin, ocount, odt, tm, tdisp, tcount, tdt, trank, comm, attrs)
}

// Xfer is the paper's single-interface form (MPI_RMA_xfer): op selects
// put, get or accumulate; accOp selects the combining operation for
// accumulates (ignored otherwise).
func (e *Engine) Xfer(op OpType, accOp AccOp, origin memsim.Region, ocount int, odt datatype.Type, tm TargetMem, tdisp, tcount int, tdt datatype.Type, trank int, comm *runtime.Comm, attrs Attr) (*Request, error) {
	scale := 1.0
	switch op {
	case OpPut, OpGet:
		accOp = AccNone
	case OpAccumulate:
		if accOp == AccNone {
			accOp = AccReplace
		}
	case OpInvoke:
		// The optype expansion: a remote method invocation. The origin
		// buffer is the payload; tdisp names the handler id; the
		// target-side arguments are unused.
		ext := datatype.ExtentOf(ocount, odt)
		if !origin.Contains(0, ext) {
			return nil, fmt.Errorf("core: invoke payload of %d bytes exceeds origin region of %d: %w", ext, origin.Size, ErrBounds)
		}
		if tdisp < 0 {
			return nil, fmt.Errorf("core: invoke handler id must be non-negative: %w", ErrBounds)
		}
		payload := e.proc.Mem().Snapshot(origin.Offset, ext)
		return e.InvokeAM(uint64(tdisp), payload, trank, comm, attrs)
	default:
		return nil, fmt.Errorf("core: unknown op type %v", op)
	}
	return e.xfer(op, accOp, scale, origin, ocount, odt, tm, tdisp, tcount, tdt, trank, comm, attrs)
}

// validateXfer checks the transfer arguments shared by all operations.
// Every failure wraps one of the sentinel errors of errors.go.
func (e *Engine) validateXfer(op OpType, accOp AccOp, origin memsim.Region, ocount int, odt datatype.Type, tm TargetMem, tdisp, tcount int, tdt datatype.Type, trank int, comm *runtime.Comm) error {
	if err := e.checkOwner(tm, trank, comm); err != nil {
		return err
	}
	if ocount < 0 || tcount < 0 || tdisp < 0 {
		return fmt.Errorf("core: negative count or displacement: %w", ErrBounds)
	}
	if !datatype.Compatible(ocount, odt, tcount, tdt) {
		return fmt.Errorf("core: type signature mismatch: %d x %s vs %d x %s: %w", ocount, odt.Name(), tcount, tdt.Name(), ErrType)
	}
	oExt := datatype.ExtentOf(ocount, odt)
	if !origin.Contains(0, oExt) {
		return fmt.Errorf("core: origin region of %d bytes cannot hold %d x %s (%d bytes): %w", origin.Size, ocount, odt.Name(), oExt, ErrBounds)
	}
	tExt := datatype.ExtentOf(tcount, tdt)
	if tdisp > tm.Size-tExt {
		// Never computes tdisp+tExt: that sum wraps for a displacement
		// near MaxInt and would pass the access on to the target.
		return fmt.Errorf("core: target access of %d bytes at %d exceeds target_mem of %d bytes: %w", tExt, tdisp, tm.Size, ErrBounds)
	}
	if tm.AddrBits == 32 && uint64(tdisp)+uint64(tExt) > 1<<32 {
		return fmt.Errorf("core: access beyond the target's 32-bit address space: %w", ErrBounds)
	}
	if op == OpAccumulate && (accOp == AccAxpy || accOp == AccProd) {
		for _, k := range kindsOf(tcount, tdt) {
			if accOp == AccAxpy && k != datatype.KFloat64 && k != datatype.KFloat32 {
				return fmt.Errorf("core: axpy accumulate requires floating-point elements, got %v: %w", k, ErrType)
			}
			if k == datatype.KByte {
				return fmt.Errorf("core: accumulate op %v not defined for byte elements: %w", accOp, ErrType)
			}
		}
	}
	return nil
}

// kindsOf returns the distinct element kinds of a transfer, in layout
// order. Every instance repeats the first one's kinds.
func kindsOf(count int, t datatype.Type) []datatype.Kind {
	var out []datatype.Kind
	datatype.WalkN(min(count, 1), t, func(_, _ int, k datatype.Kind) {
		for _, seen := range out {
			if seen == k {
				return
			}
		}
		out = append(out, k)
	})
	return out
}

// worldRank resolves an operation's target rank. Ranks of comm map through
// it; spare ranks live outside the communicator, so a descriptor
// re-targeted at a dead rank's successor names it by world rank directly.
func (e *Engine) worldRank(trank int, comm *runtime.Comm) (int, error) {
	if trank >= 0 && trank < comm.Size() {
		return comm.WorldRank(trank), nil
	}
	if wd := e.proc.World(); trank < 0 || wd == nil || trank >= wd.TotalRanks() {
		return 0, fmt.Errorf("core: target rank %d out of range: %w", trank, ErrBadHandle)
	}
	return trank, nil
}

// checkOwner verifies that tm is a descriptor and that trank of comm is the
// rank that owns it.
func (e *Engine) checkOwner(tm TargetMem, trank int, comm *runtime.Comm) error {
	if !tm.Valid() {
		return fmt.Errorf("core: invalid target_mem descriptor: %w", ErrBadHandle)
	}
	w, err := e.worldRank(trank, comm)
	if err != nil {
		return err
	}
	if w != tm.Owner {
		return fmt.Errorf("core: target rank %d of comm resolves to world rank %d, but target_mem is owned by rank %d: %w", trank, w, tm.Owner, ErrBadHandle)
	}
	return nil
}

// xfer is the common issue path of put, get and accumulate.
func (e *Engine) xfer(op OpType, accOp AccOp, scale float64, origin memsim.Region, ocount int, odt datatype.Type, tm TargetMem, tdisp, tcount int, tdt datatype.Type, trank int, comm *runtime.Comm, attrs Attr) (*Request, error) {
	if err := e.validateXfer(op, accOp, origin, ocount, odt, tm, tdisp, tcount, tdt, trank, comm); err != nil {
		return nil, err
	}
	attrs = e.effectiveAttrs(comm, attrs)
	orig := landing{origin, ocount, odt}
	packed := datatype.PackedSize(ocount, odt)
	if e.batchable(op, attrs, packed) {
		return e.issue(comm, tm.Owner, attrs, latKindOf(op), nil, orig, &wireOp{
			handle:  tm.Handle,
			disp:    tdisp,
			tcount:  tcount,
			accOp:   accOp,
			atomic:  attrs&AttrAtomic != 0,
			ordered: attrs&AttrOrdering != 0,
			scale:   scale,
			tdt:     tdt,
		})
	}

	var m *frame
	var land landing
	if op == OpGet {
		// A get ships only the target type; the reply lands in the origin
		// layout.
		m, _ = e.newFramed(tm.Owner, kGet, tdt, AccNone, 0, 0)
		land = orig
	} else {
		var wire []byte
		m, wire = e.newFramed(tm.Owner, kPut, tdt, accOp, scale, packed)
		if err := e.packFrom(wire, origin.Offset, ocount, odt, false); err != nil {
			return nil, err
		}
	}
	m.Hdr[hHandle] = tm.Handle
	m.Hdr[hDisp] = uint64(tdisp)
	m.Hdr[hCount] = uint64(tcount)
	m.Hdr[hMeta] = uint64(accOp) << 16
	return e.issue(comm, tm.Owner, attrs, latKindOf(op), m, land, nil)
}

// issue is the issue path of every operation: transfers, read-modify-
// writes, active messages. The caller has validated its arguments. An
// operation that pays its own wire message arrives built as m (kind,
// destination, handle/displacement/count, the op bits of hMeta, payload).
// A put or accumulate that rides the target's issue ring arrives as put,
// with m nil and its origin data in land: its member frame is written, and
// its data packed, straight into the ring's aggregate, which goes out when
// it is full or flushed.
// Everything else — the fast-fail, progress, the fence, the request and
// the counters — is shared and happens here, once. A put, accumulate or
// active message without RemoteComplete is done once its data has left the
// origin buffer; a get or RMW completes on its reply, and a remote-complete
// ring member on its aggregate's notification. For a message, land is
// where a get's reply goes, and zero for every other kind.
//
// A blocking call ends here (an RMW's in rmw). A pack, lock or send
// failure fails the operation's request instead of abandoning it (fail):
// that keeps every observation surface — Err, OnDone, Select, the flight
// record — in agreement with the returned error. This is the only place
// that has to. A message is issue's to reclaim once the send has returned
// and its stamps have been read.
func (e *Engine) issue(comm *runtime.Comm, target int, attrs Attr, latKind uint8, m *frame, land landing, put *wireOp) (*Request, error) {
	if err := e.stickyFor(target); err != nil {
		// Fast-fail toward a dead rank or failed link: issuing would only
		// accumulate requests that the failure handler must then reap, or
		// park one in a ring whose failing flush may be arbitrarily far
		// away.
		return nil, err
	}
	e.Progress() // entering the library makes progress (MechProgress)
	if m != nil {
		e.flushTarget(target) // a singleton must not overtake ring-held operations
	}
	if err := e.maybeFence(comm, target); err != nil {
		return nil, err
	}
	rmw := m != nil && m.Kind == kRMW
	replies := rmw || m != nil && m.Kind == kGet
	slotted := replies || attrs&AttrRemoteComplete != 0
	blocking := rmw || attrs&AttrBlocking != 0
	issuedAt := e.proc.Now()

	packed, full := 0, false
	var seq uint64
	e.mu.Lock()
	req, id := e.newRequest(target, slotted, blocking)
	if req != nil {
		req.latKind, req.issuedAt, req.land = latKind, issuedAt, land
	}
	// fail ends an operation that could not be issued, so its slot is
	// freed and every observation surface and its flight record agree
	// with the returned error.
	fail := func(err error) (*Request, error) {
		switch now := e.proc.Now(); {
		case slotted:
			e.settle(id, now, err) // unless the failure fan-out did
			if blocking {
				e.await(req)
			}
		case req != nil:
			req.finish(now, err)
		default:
			e.opDone(target, id, latKind, issuedAt, now, err)
		}
		return nil, err
	}
	ts := e.targetLocked(target)
	if put != nil {
		ring := &ts.ring
		packed = datatype.PackedSize(land.count, land.dt)
		err := ring.add(put, req, packed, func(wire []byte) error {
			return e.packFrom(wire, land.region.Offset, land.count, land.dt, false)
		})
		if err != nil {
			e.mu.Unlock()
			return fail(err)
		}
		if attrs&AttrRemoteComplete != 0 {
			ring.remote = append(ring.remote, id)
		}
		full = len(ring.reqs) >= e.opts.BatchOps || ring.bytes >= DefaultBatchBytes
	}
	epoch := ts.chkEpoch
	ts.sent++
	if put != nil || replies || attrs&(AttrRemoteComplete|AttrNotify) != 0 {
		// The operation's reply, ack, or notification — a ring member's
		// aggregate always notifies — reports a delivery counter;
		// Complete may wait on counters instead of probing.
		ts.willConfirm++
	}
	if put != nil {
		ts.batched++
	} else {
		ts.singleton++
		// Ordered-stream sequence number, only needed when the network
		// itself does not order messages (the Figure 2 "ordering is free"
		// case). A ring's aggregate takes one when it is flushed.
		if attrs&AttrOrdering != 0 && !e.proc.NIC().Endpoint().Ordered() {
			ts.orderSeq++
			seq = ts.orderSeq
		}
	}
	e.mu.Unlock()
	e.OpsIssued.Inc()

	if put != nil {
		e.BatchedOps.Inc()
		e.emit(trace.KindEnqueue, e.proc.Now(), target, id, int64(packed), 0)
		if attrs&AttrRemoteComplete == 0 {
			req.finish(e.proc.Now(), nil)
		}
		if full {
			e.flushTarget(target)
		}
		e.loosen(req)
		return req, nil
	}

	e.SingletonOps.Inc()
	m.Hdr[hMeta] |= uint64(attrs)&0xffff | (epoch&0xffffffff)<<32
	m.Hdr[hReq] = id
	m.Hdr[hSeq] = seq

	// The coarse-grain serializer requires the origin to hold the target's
	// process-level lock across the whole atomic operation; an active
	// message's handler is always a critical section.
	var err error
	if (attrs&AttrAtomic != 0 || m.Kind == kAM) && e.targetUsesCoarseLock() {
		if err = e.acquireLock(target); err == nil {
			m.Flags |= flagUnlockAfter
		}
	}
	if err == nil {
		_, err = e.proc.NIC().Send(e.proc.Now(), &m.Message)
	}
	sent, arrive, n := m.SentAt, m.ArriveAt, len(m.Payload)
	e.reclaim(m)
	if err != nil {
		return fail(err)
	}
	e.proc.NIC().CPU().AdvanceTo(sent)
	e.emit(trace.KindIssue, sent, target, id, int64(n), int64(arrive))

	switch {
	case req == nil: // blocking, and done at its send
		e.opDone(target, id, latKind, issuedAt, sent, nil)
		return &e.doneReq, nil
	case !slotted:
		req.finish(sent, nil)
	case rmw: // its caller awaits the old value
		return req, nil
	case blocking:
		if _, err := e.await(req); err != nil {
			return nil, err
		}
		return &e.doneReq, nil
	}
	e.loosen(req)
	return req, nil
}

// targetUsesCoarseLock reports whether atomic operations must use the
// coarse-grain lock protocol. The mechanism is a property of the target's
// engine; in this simulator all ranks of a world share one Options value,
// so the origin's own configuration answers for the target (asserted in
// tests).
func (e *Engine) targetUsesCoarseLock() bool {
	return e.opts.Atomicity == serializer.MechCoarseLock
}

// newFramed builds a message of kind whose body opens with a put head (a
// get's body is a put head and nothing more) followed by packed bytes for
// the caller to pack the origin data into, returned as wire.
func (e *Engine) newFramed(dst int, kind uint8, tdt datatype.Type, accOp AccOp, scale float64, packed int) (m *frame, wire []byte) {
	m = e.newMsg(dst, kind, putHeadLen(tdt, accOp)+packed)
	head := appendPutHead(m.Payload[:0], tdt, accOp, scale)
	return m, m.Payload[len(head):]
}

// The put head is what a kPut body and a batch member frame both carry
// ahead of their wire data: the framed target type, then the scale's f64
// bits when accOp is AccAxpy,
//
//	uvarint(len dt) dt [axpy f64]
//
// appendPutHead is its one encoder and parsePutHead its one parser.

// putHeadLen is the encoded length of a put head.
func putHeadLen(tdt datatype.Type, accOp AccOp) int {
	n := len(datatype.Encode(tdt))
	n += uvarintLen(uint64(n))
	if accOp == AccAxpy {
		n += 8
	}
	return n
}

// appendPutHead appends the put head of tdt, accOp and scale to b.
func appendPutHead(b []byte, tdt datatype.Type, accOp AccOp, scale float64) []byte {
	dt := datatype.Encode(tdt)
	b = binary.AppendUvarint(b, uint64(len(dt)))
	b = append(b, dt...)
	if accOp == AccAxpy {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scale))
	}
	return b
}

// parsePutHead splits a body that opens with a put head into the decoded
// type, the scale (1 unless accOp is AccAxpy) and the rest.
func parsePutHead(body []byte, accOp AccOp) (tdt datatype.Type, scale float64, rest []byte, err error) {
	dtLen, n := binary.Uvarint(body)
	if n <= 0 || uint64(len(body)-n) < dtLen {
		return nil, 0, nil, fmt.Errorf("core: truncated datatype frame")
	}
	if tdt, err = decodedTypes.decode(body[n : n+int(dtLen)]); err != nil {
		return nil, 0, nil, err
	}
	rest, scale = body[n+int(dtLen):], 1
	if accOp == AccAxpy {
		if len(rest) < 8 {
			return nil, 0, nil, fmt.Errorf("core: truncated axpy scale")
		}
		scale = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	}
	return tdt, scale, rest, nil
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Bounds on the decoded-type table. Encodings arrive from the network, so
// both the number of entries and the length of each are capped; a type
// whose encoding is too long is decoded for its own operation and not
// kept, and a new type arriving at a full table empties it first.
const (
	maxTypeEntries = 256
	maxTypeEncLen  = 256
)

// typeTable interns decoded target types: the same encoding bytes decode
// to the same Type value, so a type's plan (datatype.EachGroup) is built
// once per process rather than once per operation, and a derived type
// costs its decode allocation once. Types are immutable, so an entry is
// never invalidated; the table is only ever emptied when full, so a burst
// of distinct layouts costs the live ones one more decode and plan each,
// rather than locking them out for good. The zero value is empty and
// ready to use.
type typeTable struct {
	mu    sync.Mutex
	types map[string]datatype.Type
}

// decodedTypes is the process-wide table every engine decodes through:
// ranks of one world, and of every world in the process, ship the same
// encodings.
var decodedTypes typeTable

// decode decodes enc, which must hold exactly one type encoding. An
// encoding of two bytes or fewer (a primitive) decodes without allocating
// and bypasses the table.
func (tt *typeTable) decode(enc []byte) (datatype.Type, error) {
	keep := len(enc) > 2 && len(enc) <= maxTypeEncLen
	if keep {
		tt.mu.Lock()
		dt, ok := tt.types[string(enc)]
		tt.mu.Unlock()
		if ok {
			return dt, nil
		}
	}
	dt, used, err := datatype.Decode(enc)
	if err != nil {
		return nil, err
	}
	if used != len(enc) {
		return nil, fmt.Errorf("core: datatype frame has %d trailing bytes", len(enc)-used)
	}
	if keep {
		tt.mu.Lock()
		if prev, ok := tt.types[string(enc)]; ok {
			dt = prev // decoded meanwhile by another rank: one value per encoding
		} else {
			if tt.types == nil {
				tt.types = make(map[string]datatype.Type)
			} else if len(tt.types) == maxTypeEntries {
				clear(tt.types)
			}
			tt.types[string(enc)] = dt
		}
		tt.mu.Unlock()
	}
	return dt, nil
}
