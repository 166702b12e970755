package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/trace"
)

// frameInline is the largest payload a protocol message carries inside its
// own allocation: an 8-byte put with its type frame, a get's type frame, an
// RMW's operands, an old value.
const frameInline = 32

// frame is a message with room for a small payload behind it.
type frame struct {
	simnet.Message
	body [frameInline]byte
}

// newMsg builds a protocol message skeleton with an n-byte payload for the
// caller to fill: none for n = 0, inside the message's own allocation up to
// frameInline, a second one beyond.
func newMsg(dst int, kind uint8, n int) *simnet.Message {
	switch {
	case n == 0:
		return &simnet.Message{Dst: dst, Kind: kind}
	case n <= frameInline:
		f := &frame{Message: simnet.Message{Dst: dst, Kind: kind}}
		f.Payload = f.body[:n:n]
		return &f.Message
	default:
		return &simnet.Message{Dst: dst, Kind: kind, Payload: make([]byte, n)}
	}
}

// Put transfers origin data into target memory (the paper's MPI_RMA_put).
// origin is a region of this rank's memory holding ocount instances of
// odt; the data lands at byte displacement tdisp of tm, laid out as tcount
// instances of tdt. trank names the target within comm and must match
// tm.Owner. attrs selects the operation's attributes; the communicator and
// engine defaults are ORed in.
//
// Without AttrBlocking, Put returns a Request; with it, Put completes the
// operation before returning (the returned request is already complete).
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
	if tdisp+tExt > tm.Size {
		return fmt.Errorf("core: target access [%d,%d) exceeds target_mem of %d bytes: %w", tdisp, tdisp+tExt, tm.Size, ErrBounds)
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
	if e.batchable(op, attrs, datatype.PackedSize(ocount, odt)) {
		e.Progress() // entering the library makes progress (MechProgress)
		if err := e.maybeFence(comm, tm.Owner); err != nil {
			return nil, err
		}
		return e.appendBatch(accOp, scale, origin, ocount, odt, tm, tdisp, tcount, tdt, attrs)
	}

	var m *simnet.Message
	var land landing
	if op == OpGet {
		// A get ships only the target type; the reply lands in the origin
		// layout.
		m, _ = newFramed(tm.Owner, kGet, tdt, AccNone, 0, 0)
		land = landing{origin, ocount, odt}
	} else {
		var wire []byte
		m, wire = newFramed(tm.Owner, kPut, tdt, accOp, scale, datatype.PackedSize(ocount, odt))
		if err := e.packFrom(wire, origin.Offset, ocount, odt, false); err != nil {
			return nil, err
		}
	}
	m.Hdr[hHandle] = tm.Handle
	m.Hdr[hDisp] = uint64(tdisp)
	m.Hdr[hCount] = uint64(tcount)
	m.Hdr[hMeta] = uint64(accOp) << 16
	return e.issueSingleton(comm, m, attrs, attrs&AttrAtomic != 0, latKindOf(op), land)
}

// issueSingleton is the issue path of every operation that pays its own
// wire message: non-batched transfers, read-modify-writes, active
// messages. The caller has validated its arguments and built m (kind,
// destination, handle/displacement/count, the op bits of hMeta, payload);
// everything else is shared and happens here. A put, accumulate or active
// message without RemoteComplete is done once the data has left the
// origin; a get or RMW completes on its reply. land is where a get's reply
// goes, and zero for every other kind.
//
// A lock or send failure completes the request with the error instead of
// abandoning it in the engine table: that keeps every observation surface
// — Done, Err, OnDone, Select — in agreement with the returned error. This
// is the only place that has to.
func (e *Engine) issueSingleton(comm *runtime.Comm, m *simnet.Message, attrs Attr, atomic bool, latKind uint8, land landing) (*Request, error) {
	target := m.Dst
	if err := e.stickyFor(target); err != nil {
		// Fast-fail toward a dead rank or failed link: issuing would only
		// accumulate requests that the failure handler must then reap.
		return nil, err
	}
	e.Progress()          // entering the library makes progress (MechProgress)
	e.flushTarget(target) // a singleton must not overtake ring-held operations
	if err := e.maybeFence(comm, target); err != nil {
		return nil, err
	}

	replies := m.Kind == kGet || m.Kind == kRMW
	var seq, epoch uint64
	e.mu.Lock()
	ts := e.targetLocked(target)
	epoch = ts.chkEpoch
	ts.sent++
	ts.singleton++
	if replies || attrs&(AttrRemoteComplete|AttrNotify) != 0 {
		// The operation's reply, ack, or notification reports a delivery
		// counter; Complete may wait on counters instead of probing.
		ts.willConfirm++
	}
	// Ordered-stream sequence number, only needed when the network itself
	// does not order messages (the Figure 2 "ordering is free" case).
	if attrs&AttrOrdering != 0 && !e.proc.NIC().Endpoint().Ordered() {
		ts.orderSeq++
		seq = ts.orderSeq
	}
	e.mu.Unlock()
	e.OpsIssued.Inc()
	e.SingletonOps.Inc()

	req := e.newRequest(target, latKind)
	req.land = land
	m.Hdr[hMeta] |= uint64(attrs)&0xffff | (epoch&0xffffffff)<<32
	m.Hdr[hReq] = req.id
	m.Hdr[hSeq] = seq

	// The coarse-grain serializer requires the origin to hold the target's
	// process-level lock across the whole atomic operation.
	var err error
	if atomic && e.targetUsesCoarseLock() {
		if err = e.acquireLock(target); err == nil {
			m.Flags |= flagUnlockAfter
		}
	}
	if err == nil {
		_, err = e.proc.NIC().Send(e.proc.Now(), m)
	}
	if err != nil {
		req.completeErr(e.proc.Now(), err)
		return nil, err
	}
	e.proc.NIC().CPU().AdvanceTo(m.SentAt)
	e.emit(trace.KindIssue, m.SentAt, target, req.id, int64(len(m.Payload)), int64(m.ArriveAt))

	if !replies && attrs&AttrRemoteComplete == 0 {
		req.complete(m.SentAt, nil)
	}
	if attrs&AttrBlocking != 0 {
		req.Wait()
	}
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

// newFramed builds a message of kind whose body opens with the framed
// target type — varint(len(dt)) dt, all a get carries — followed, for a put
// or accumulate, by the scale's f64 bits if accOp is AccAxpy and by packed
// bytes for the caller to pack the origin data into, returned as wire.
func newFramed(dst int, kind uint8, tdt datatype.Type, accOp AccOp, scale float64, packed int) (m *simnet.Message, wire []byte) {
	dt := datatype.Encode(tdt)
	var pre [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], uint64(len(dt)))
	head := n + len(dt)
	if accOp == AccAxpy {
		head += 8
	}
	m = newMsg(dst, kind, head+packed)
	copy(m.Payload, pre[:n])
	copy(m.Payload[n:], dt)
	if accOp == AccAxpy {
		binary.LittleEndian.PutUint64(m.Payload[head-8:], math.Float64bits(scale))
	}
	return m, m.Payload[head:]
}

// parseTypeFrame splits a framed body into the decoded type and the rest.
func parseTypeFrame(body []byte) (datatype.Type, []byte, error) {
	dtLen, n := binary.Uvarint(body)
	if n <= 0 || uint64(len(body)-n) < dtLen {
		return nil, nil, fmt.Errorf("core: truncated datatype frame")
	}
	dt, err := decodedTypes.decode(body[n : n+int(dtLen)])
	if err != nil {
		return nil, nil, err
	}
	return dt, body[n+int(dtLen):], nil
}

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
