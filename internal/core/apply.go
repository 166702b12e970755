package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// forRuns pairs every run of count instances of dt, the first placed at
// base, with its slice of the canonical wire bytes, stopping at the first
// error. It is where core's deposits meet datatype's one iterator: a
// contiguous layout is one run, so one call of fn.
func forRuns(base int, wire []byte, count int, dt datatype.Type, fn func(at int, seg []byte, k datatype.Kind) error) error {
	if want := datatype.PackedSize(count, dt); len(wire) != want {
		return fmt.Errorf("core: transfer carries %d wire bytes, layout needs %d", len(wire), want)
	}
	pos := 0
	var err error
	datatype.WalkN(count, dt, func(off, n int, k datatype.Kind) {
		seg := wire[pos : pos+n*k.Width()]
		pos += len(seg)
		if err == nil {
			err = fn(base+off, seg, k)
		}
	})
	return err
}

// scatter writes canonical wire data into this rank's memory at base, laid
// out as count instances of dt in the rank's byte order: the landing of a
// put at its target and of a get reply at its origin. Each run is one
// memory write, so holes in the layout are never written — a deposit that
// lands in a hole meanwhile survives, and a non-cache-coherent rank sees
// no version bump on hole lines. On such a rank the data lands in main
// memory and the owner must Fence/Invalidate before reading it locally —
// memsim models that, the protocol does not hide it (Section III-B2).
func (e *Engine) scatter(base int, wire []byte, count int, dt datatype.Type) error {
	mem := e.proc.Mem()
	order := e.proc.ByteOrder()
	return forRuns(base, wire, count, dt, func(at int, seg []byte, k datatype.Kind) error {
		if order == datatype.BigEndian && k.Width() > 1 {
			local := make([]byte, len(seg))
			combineSegment(local, seg, k, order, AccReplace, 0)
			seg = local
		}
		return mem.RemoteWrite(at, seg)
	})
}

// gather reads tcount instances of tdt from target memory at base and
// packs them into canonical wire format.
func (e *Engine) gather(base int, tcount int, tdt datatype.Type) ([]byte, error) {
	snap := make([]byte, datatype.ExtentOf(tcount, tdt))
	if err := e.proc.Mem().RemoteRead(base, snap); err != nil {
		return nil, err
	}
	return datatype.Pack(snap, tcount, tdt, e.proc.ByteOrder())
}

// depositAcc combines canonical wire data into target memory elementwise
// with op. Each contiguous segment is updated under the memory lock, so
// elementwise updates are atomic per segment regardless of the operation's
// atomicity attribute (MPI-2 accumulate granularity); whole-operation
// atomicity is the serializer's job.
func (e *Engine) depositAcc(base int, wire []byte, tcount int, tdt datatype.Type, op AccOp, scale float64) error {
	mem := e.proc.Mem()
	order := e.proc.ByteOrder()
	return forRuns(base, wire, tcount, tdt, func(at int, seg []byte, k datatype.Kind) error {
		return mem.Update(at, len(seg), func(cur []byte) {
			combineSegment(cur, seg, k, order, op, scale)
		})
	})
}

// applyDeposit is the target-side body of every put and accumulate, a
// single operation (member -1) or a batch member, run at its scheduled
// apply time end: deposit → BadReq or access record → replicate → fin.
// fin is the caller's completion bookkeeping. After a
// successful deposit it waits until the buddy holds the mutated bytes (a
// pass-through when unreplicated); a lost deposit — unexposed memory, wire
// bytes that do not fit the layout — runs it at once, so the op still
// counts toward completion thresholds.
func (e *Engine) applyDeposit(m *simnet.Message, op *wireOp, exp *exposure, member int, end vtime.Time, fin func(end vtime.Time)) {
	ext := datatype.ExtentOf(op.tcount, op.tdt)
	acc := op.accOp != AccNone && op.accOp != AccReplace
	deposited := false
	if exp != nil {
		base := exp.region.Offset + op.disp
		var err error
		if acc {
			err = e.depositAcc(base, op.wire, op.tcount, op.tdt, op.accOp, op.scale)
		} else {
			err = e.scatter(base, op.wire, op.tcount, op.tdt)
		}
		deposited = err == nil
	}
	if !deposited {
		e.proc.NIC().BadReq.Inc()
		fin(end)
		return
	}
	kind := AccessPut
	if acc {
		kind = AccessAcc
	}
	e.recordAccess(m, Access{
		Handle: op.handle, Disp: op.disp, Len: ext,
		Kind: kind, Atomic: op.atomic, Ordered: op.ordered, Member: member, At: end,
	})
	e.replicate(op.handle, exp, op.disp, ext, end, fin)
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
