package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
	"unsafe"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// applyOp is one incoming operation on its way through the target: its
// message, what the header and body decode to, and what each stage leaves
// for the next. One record carries the operation from the handler that
// first sees the message through the ordered-stream gate (start), the apply
// schedule (Apply) and the wait for the buddy's replica to its completion
// bookkeeping (fin), so no stage hands the next a closure. A record rides
// in the frame that carries its operation (frame.op): it lives exactly as
// long as the consumer holds the frame, and fin, which resets it, is the
// only stage that lets go of it. A message newMsg did not build (a relay's
// or fault plan's copy) gets a record of its own; a batch member's lives
// in its aggregate's member slice (decodeBatch). The consumer lets go of the
// message in fin too, after the record's reset (frame.go): a put, get or
// RMW's consume is fin's last touch, and only fin may make it. A holder
// that keeps the message past the handler that first saw it — the reorder
// buffer, a serializer task, a completion deferred behind the buddy —
// delays it, and the frame then comes home by fin's hand.
type applyOp struct {
	e *Engine
	m *simnet.Message
	// wireOp is what a put, accumulate or get touches; an RMW uses its
	// handle and displacement. atomic covers every kind: RMWs and active
	// messages always are.
	wireOp
	attrs Attr
	exp   *exposure
	cost  time.Duration // modelled apply duration; 0 until (or if never) scheduled

	member int         // index within a batch, -1 for an operation with a message of its own
	track  *batchTrack // a batch member's aggregate
	subop  int         // kRMW: which read-modify-write
	ok     bool        // kRMW: the access is valid
	am     AMHandler   // kAM: the registered handler, if any
	reply  *frame

	heldAt vtime.Time // arrival, for the reorder buffer's chain

	// free marks a record fin has released. Every stage checks it; the
	// recycle-safety test also quarantines consumed frames, so that a
	// stale use cannot hide behind a reuse.
	free bool
}

// handleOp receives every operation the target applies — a put or
// accumulate, a get, a read-modify-write, an active message, an aggregate
// of ring members — and lets it through the ordered-stream gate to start.
func (e *Engine) handleOp(m *simnet.Message, at vtime.Time) {
	e.gateOrdered(e.takeOp(m), at)
}

// takeOp returns the record for m — the one in its frame, if newMsg built
// m — with its header fields decoded into it.
func (e *Engine) takeOp(m *simnet.Message) *applyOp {
	var r *applyOp
	if m.Framed {
		r = &(*frame)(unsafe.Pointer(m)).op
	} else {
		r = &applyOp{}
	}
	r.e, r.m, r.free = e, m, false
	r.attrs = Attr(m.Hdr[hMeta] & 0xffff)
	r.wireOp = wireOp{
		handle:  m.Hdr[hHandle],
		disp:    int(m.Hdr[hDisp]),
		tcount:  int(m.Hdr[hCount]),
		accOp:   AccOp(m.Hdr[hMeta] >> 16 & 0xff),
		atomic:  r.attrs&AttrAtomic != 0 || m.Kind == kRMW || m.Kind == kAM,
		ordered: r.attrs&AttrOrdering != 0,
		scale:   1,
	}
	r.subop = int(m.Hdr[hMeta] >> 24 & 0xff)
	r.member = -1
	return r
}

// live panics on a stage entered with a released record: only a bug in
// this file's ownership rule — fin is the last touch — can cause it.
func (r *applyOp) live() {
	if r.free {
		panic("core: operation record used after its release")
	}
}

// start runs once the ordered stream lets the operation through: decode
// the body, find the exposure, schedule the apply — or, for a body that
// cannot be applied, go straight to fin so the operation still counts.
func (r *applyOp) start(at vtime.Time) {
	r.live()
	switch r.m.Kind {
	case kPut:
		r.startPut(at)
	case kGet:
		r.startGet(at)
	case kRMW:
		r.startRMW(at)
	case kAM:
		r.startAM(at)
	case kBatch:
		r.startBatch(at)
	}
}

// Apply runs at the operation's scheduled time end, on whichever goroutine
// its serialization path runs on. Every branch ends in fin, at once or when
// the buddy has acknowledged the bytes.
func (r *applyOp) Apply(end vtime.Time) {
	r.live()
	switch r.m.Kind {
	case kPut, kBatch:
		r.e.applyDeposit(r, end)
	case kGet:
		r.applyGet(end)
	case kRMW:
		r.applyRMW(end)
	case kAM:
		r.applyAM(end)
	}
}

// fin is the end of every operation: the completion bookkeeping of its
// kind, then the record's release — the only one — and last the consumer's
// release of a singleton's frame (consume). After a
// mutating apply it runs once the buddy holds the bytes; an operation that
// could not be applied comes here directly, so it still counts toward
// completion thresholds.
func (r *applyOp) fin(end vtime.Time) {
	r.live()
	e, m := r.e, r.m
	switch {
	case r.track != nil:
		// A batch member: its counter bump and, after the last member, the
		// aggregate's one notification.
		e.emit(trace.KindApply, end, m.Src, m.Hdr[hReq], int64(len(r.wire)), int64(r.cost))
		r.track.opDone(e.noteApplied(m.Src, end), end)
	case m.Kind == kPut, m.Kind == kAM:
		e.finishApply(r, r.attrs, end)
	case m.Kind == kGet:
		r.sendValue(kGetReply, end)
	case m.Kind == kRMW:
		r.sendValue(kRMWReply, end)
	}
	// A kBatch envelope's members did its counting.
	*r = applyOp{free: true}
	if recycled(m.Kind) { // a batch member's m is its aggregate's
		e.consume(m)
	}
}

// wireFits checks that wire is exactly the canonical bytes of count
// instances of dt, so a walk of the layout can slice it run by run.
func wireFits(wire []byte, count int, dt datatype.Type) error {
	if want := datatype.PackedSize(count, dt); len(wire) != want {
		return fmt.Errorf("core: transfer carries %d wire bytes, layout needs %d", len(wire), want)
	}
	return nil
}

// packFrom packs count instances of dt laid out at base in this rank's
// memory into wire, canonical format, reading the memory in place under its
// lock: as the NIC serving a get when remote (a counted remote read), as the
// rank itself otherwise. wire must be PackedSize(count, dt) bytes long.
func (e *Engine) packFrom(wire []byte, base, count int, dt datatype.Type, remote bool) error {
	mem, n := e.proc.Mem(), datatype.ExtentOf(count, dt)
	var packErr error
	pack := func(cur []byte) {
		packErr = datatype.PackInto(wire, cur, count, dt, e.proc.ByteOrder())
	}
	// Direct calls: through a function value the closure would escape.
	var err error
	if remote {
		err = mem.RemoteView(base, n, pack)
	} else {
		err = mem.View(base, n, pack)
	}
	if err != nil {
		return err
	}
	return packErr
}

// depositAcc combines canonical wire data into target memory elementwise
// with op. Each contiguous segment is updated under the memory lock, so
// elementwise updates are atomic per segment regardless of the operation's
// atomicity attribute (MPI-2 accumulate granularity); whole-operation
// atomicity is the serializer's job.
func (e *Engine) depositAcc(base int, wire []byte, tcount int, tdt datatype.Type, op AccOp, scale float64) error {
	if err := wireFits(wire, tcount, tdt); err != nil {
		return err
	}
	mem := e.proc.Mem()
	order := e.proc.ByteOrder()
	var c datatype.Cursor
	c.Reset(tcount, tdt)
	for off, n, k, ok := c.Next(); ok; off, n, k, ok = c.Next() {
		seg := wire[:n*k.Width()]
		wire = wire[len(seg):]
		err := mem.Update(base+off, len(seg), func(cur []byte) {
			combineSegment(cur, seg, k, order, op, scale)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// applyDeposit is the target-side body of every put and accumulate, a
// single operation or a batch member, run at its scheduled apply time end:
// deposit → BadReq or access record → replicate → fin. After a successful
// deposit fin waits until the buddy holds the mutated bytes (a pass-through
// when unreplicated); a lost deposit — unexposed memory, a layout reaching
// past its exposure, wire bytes that do not fit the layout — runs it at once.
func (e *Engine) applyDeposit(r *applyOp, end vtime.Time) {
	ext := datatype.ExtentOf(r.tcount, r.tdt)
	acc := r.accOp != AccNone && r.accOp != AccReplace
	deposited := false
	if r.exp != nil && r.exp.region.Contains(r.disp, ext) {
		base := r.exp.region.Offset + r.disp
		var err error
		if acc {
			err = e.depositAcc(base, r.wire, r.tcount, r.tdt, r.accOp, r.scale)
		} else {
			// One locked pass that writes only the layout's runs: a local
			// reader never sees the put half landed, and a deposit landing
			// in a hole meanwhile survives. On a non-cache-coherent rank the
			// owner must Fence/Invalidate before reading the data locally —
			// memsim models that, the protocol does not hide it (Section
			// III-B2).
			err = e.proc.Mem().RemoteUnpack(base, r.wire, r.tcount, r.tdt, e.proc.ByteOrder())
		}
		deposited = err == nil
	}
	if !deposited {
		e.proc.NIC().BadReq.Inc()
		r.fin(end)
		return
	}
	if e.recording() {
		kind := AccessPut
		if acc {
			kind = AccessAcc
		}
		e.recordAccess(r.m, Access{
			Handle: r.handle, Disp: r.disp, Len: ext,
			Kind: kind, Atomic: r.atomic, Ordered: r.ordered, Member: r.member, At: end,
		})
	}
	e.replicate(r, r.disp, ext, end)
}

// loadElem reads the element at buf in the given byte order as raw bits.
func loadElem(buf []byte, w int, order datatype.ByteOrder) uint64 {
	var v uint64
	if order == datatype.BigEndian {
		for _, b := range buf[:w] {
			v = v<<8 | uint64(b)
		}
		return v
	}
	switch w {
	case 1:
		return uint64(buf[0])
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf))
	default:
		return binary.LittleEndian.Uint64(buf)
	}
}

// storeElem writes raw bits of width w at buf in the given byte order.
func storeElem(buf []byte, w int, order datatype.ByteOrder, v uint64) {
	if order == datatype.BigEndian {
		for i := w - 1; i >= 0; i-- {
			buf[i] = byte(v)
			v >>= 8
		}
		return
	}
	switch w {
	case 1:
		buf[0] = byte(v)
	case 4:
		binary.LittleEndian.PutUint32(buf, uint32(v))
	default:
		binary.LittleEndian.PutUint64(buf, v)
	}
}

// combineSegment applies op elementwise: cur (target order) op= seg
// (canonical little-endian), writing results back into cur in target
// order.
func combineSegment(cur, seg []byte, k datatype.Kind, order datatype.ByteOrder, op AccOp, scale float64) {
	w := k.Width()
	for i := 0; i+w <= len(cur); i += w {
		c := loadElem(cur[i:], w, order)
		s := loadElem(seg[i:], w, datatype.LittleEndian)
		storeElem(cur[i:], w, order, combineElem(k, op, c, s, scale))
	}
}

// combineElem combines raw element bits c (current) and s (incoming)
// under op for kind k, returning the new raw bits.
func combineElem(k datatype.Kind, op AccOp, c, s uint64, scale float64) uint64 {
	if op == AccReplace || op == AccNone {
		return s
	}
	switch k {
	case datatype.KByte:
		a, b := uint8(c), uint8(s)
		switch op {
		case AccSum:
			return uint64(a + b)
		case AccMin:
			if b < a {
				return uint64(b)
			}
			return uint64(a)
		case AccMax:
			if b > a {
				return uint64(b)
			}
			return uint64(a)
		}
	case datatype.KInt32:
		a, b := int32(uint32(c)), int32(uint32(s))
		var r int32
		switch op {
		case AccSum:
			r = a + b
		case AccProd:
			r = a * b
		case AccMin:
			r = a
			if b < a {
				r = b
			}
		case AccMax:
			r = a
			if b > a {
				r = b
			}
		}
		return uint64(uint32(r))
	case datatype.KInt64:
		a, b := int64(c), int64(s)
		var r int64
		switch op {
		case AccSum:
			r = a + b
		case AccProd:
			r = a * b
		case AccMin:
			r = a
			if b < a {
				r = b
			}
		case AccMax:
			r = a
			if b > a {
				r = b
			}
		}
		return uint64(r)
	case datatype.KFloat32:
		a, b := math.Float32frombits(uint32(c)), math.Float32frombits(uint32(s))
		var r float32
		switch op {
		case AccSum:
			r = a + b
		case AccProd:
			r = a * b
		case AccMin:
			r = a
			if b < a {
				r = b
			}
		case AccMax:
			r = a
			if b > a {
				r = b
			}
		case AccAxpy:
			r = a + float32(scale)*b
		}
		return uint64(math.Float32bits(r))
	case datatype.KFloat64:
		a, b := math.Float64frombits(c), math.Float64frombits(s)
		var r float64
		switch op {
		case AccSum:
			r = a + b
		case AccProd:
			r = a * b
		case AccMin:
			r = a
			if b < a {
				r = b
			}
		case AccMax:
			r = a
			if b > a {
				r = b
			}
		case AccAxpy:
			r = a + scale*b
		}
		return uint64(math.Float64bits(r))
	}
	return s
}
