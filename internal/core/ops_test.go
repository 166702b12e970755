package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/vtime"
)

// writeFloat64s fills a fresh region with float64 values.
func writeFloat64s(p *runtime.Proc, vals []float64) (off int, region memsim.Region) {
	r := p.Alloc(len(vals) * 8)
	buf := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	p.WriteLocal(r, 0, buf)
	return 0, r
}

// TestGetWithStridedTypes: gather every other float64 of the target into a
// dense origin buffer.
func TestGetStrided(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(8 * 8)
			buf := make([]byte, 64)
			for i := 0; i < 8; i++ {
				binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(float64(i)))
			}
			p.WriteLocal(region, 0, buf)
			p.Send(1, 9999, tm.Encode())
			p.Barrier()
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		dst := p.Alloc(4 * 8)
		vec := datatype.Vector(4, 1, 2, datatype.Float64) // elements 0,2,4,6
		dense := datatype.Contiguous(4, datatype.Float64)
		req, err := e.Get(dst, 1, dense, tm, 0, 1, vec, 0, comm, AttrNone)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		req.Wait()
		got := p.ReadLocal(dst, 0, 32)
		for i, want := range []float64{0, 2, 4, 6} {
			v := math.Float64frombits(binary.LittleEndian.Uint64(got[i*8:]))
			if v != want {
				t.Errorf("element %d = %v, want %v", i, v, want)
			}
		}
		p.Barrier()
	})
}

// TestGetLandingSkipsHoles pins that a strided Get lands with the same
// one-write-per-run scatter a put deposit uses: the holes of the origin
// layout are never written. The origin is non-coherent and the landing's
// hole sits on a cache line of its own, cached by a local read before the
// Get; a landing that rewrote the whole extent would bump that line's
// version and turn the second local read into a stale one.
func TestGetLandingSkipsHoles(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Coherence: func(rank int) memsim.Coherence {
		if rank == 1 {
			return memsim.NonCoherentWriteThrough
		}
		return memsim.Coherent
	}})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(16)
			p.WriteLocal(region, 0, bytes.Repeat([]byte{0x5A}, 16))
			p.Send(1, 9999, tm.Encode())
			p.Barrier()
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		// Payload words at bytes [0,8) and [128,136) of a line-aligned
		// landing: cache line [64,128) is all hole.
		vec := datatype.Vector(2, 1, 16, datatype.Int64)
		raw := p.Alloc(vec.Extent() + memsim.DefaultCacheLine)
		skew := (memsim.DefaultCacheLine - raw.Offset%memsim.DefaultCacheLine) % memsim.DefaultCacheLine
		landing := memsim.Region{Offset: raw.Offset + skew, Size: vec.Extent()}
		p.ReadLocal(landing, 64, 64) // cache the hole line
		stale := p.Mem().StaleReads.Value()
		req, err := e.Get(landing, 1, vec, tm, 0, 2, datatype.Int64, 0, comm, AttrNone)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		req.Wait()
		if err := req.Err(); err != nil {
			t.Errorf("get: %v", err)
		}
		p.ReadLocal(landing, 64, 64)
		if got := p.Mem().StaleReads.Value(); got != stale {
			t.Errorf("reading the landing's hole after the Get was stale (%d -> %d stale reads): the landing wrote a hole", stale, got)
		}
		got := p.Mem().Snapshot(landing.Offset, landing.Size)
		want := make([]byte, landing.Size)
		copy(want[0:8], bytes.Repeat([]byte{0x5A}, 8))
		copy(want[128:136], bytes.Repeat([]byte{0x5A}, 8))
		if !bytes.Equal(got, want) {
			t.Errorf("landing = %x, want %x", got, want)
		}
		p.Barrier()
	})
}

// TestStridedLandingIsAtomicToLocalReads pins that a strided put lands in
// one locked memory pass. One origin puts the benchmark's strided shape,
// 8 x Vector(8,1,2,Int64), with every payload word equal to v, for v =
// 1..N, while the target rank reads the whole extent locally in a loop:
// every snapshot's 64 payload words must be equal. The reads overlap the
// puts by construction: the reader counts each read as it starts, and the
// origin issues its next put only once a read has started after the last
// one returned, so reads and landings interleave. It also counts the
// landings: each put is one remote write at the target, and a strided Get
// back is one at the origin.
func TestStridedLandingIsAtomicToLocalReads(t *testing.T) {
	const count, puts = 8, 2000
	vec := datatype.Vector(8, 1, 2, datatype.Int64)
	ext := datatype.ExtentOf(count, vec)
	var words []int // byte offsets of the payload words
	datatype.WalkN(count, vec, func(off, n int, k datatype.Kind) {
		for i := 0; i < n; i++ {
			words = append(words, off+i*k.Width())
		}
	})
	var reads atomic.Int64 // local reads started
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(ext)
			writes := p.Mem().RemoteWrites.Value()
			p.Send(1, 9999, tm.Encode())
			snap := make([]byte, ext)
			torn, seen := 0, map[uint64]bool{}
			for last := uint64(0); last != puts; {
				reads.Add(1)
				if err := p.Mem().LocalRead(region.Offset, snap); err != nil {
					t.Errorf("local read: %v", err)
					panic("strided landing: local read failed")
				}
				last = binary.LittleEndian.Uint64(snap[words[0]:])
				for _, at := range words[1:] {
					if binary.LittleEndian.Uint64(snap[at:]) != last {
						torn++
						last = 0
						break
					}
				}
				seen[last] = true
				pollYield()
			}
			p.Barrier()
			if torn > 0 {
				t.Errorf("%d local snapshots saw a strided put half landed", torn)
			}
			if len(seen) < 3 {
				t.Errorf("the reader saw %d distinct snapshots: its reads never overlapped the puts", len(seen))
			}
			if got := p.Mem().RemoteWrites.Value() - writes; got != puts {
				t.Errorf("%d strided puts took %d remote writes at the target, want one each", puts, got)
			}
			p.Barrier()
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		src, dst := p.Alloc(ext), p.Alloc(ext)
		pat := make([]byte, ext)
		for v := uint64(1); v <= puts; v++ {
			for _, at := range words {
				binary.LittleEndian.PutUint64(pat[at:], v)
			}
			p.WriteLocal(src, 0, pat)
			if _, err := e.Put(src, count, vec, tm, 0, count, vec, 0, comm, AttrNone); err != nil {
				t.Errorf("put %d: %v", v, err)
				panic("strided landing: put failed")
			}
			// The reader stops once it has seen the last put.
			for started := reads.Load(); v < puts && reads.Load() == started; {
				pollYield()
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		p.Barrier()
		writes := p.Mem().RemoteWrites.Value()
		if _, err := e.Get(dst, count, vec, tm, 0, count, vec, 0, comm, AttrBlocking); err != nil {
			t.Errorf("get: %v", err)
		}
		if got := p.Mem().RemoteWrites.Value() - writes; got != 1 {
			t.Errorf("a strided get landed in %d remote writes at the origin, want 1", got)
		}
		if !bytes.Equal(p.ReadLocal(dst, 0, ext), pat) {
			t.Error("the strided get did not return the last put")
		}
		p.Barrier()
	})
}

// TestAccumulateOps checks every combining operation's arithmetic end to
// end.
func TestAccumulateOps(t *testing.T) {
	cases := []struct {
		op      AccOp
		initial float64
		operand float64
		want    float64
	}{
		{AccReplace, 10, 3, 3},
		{AccSum, 10, 3, 13},
		{AccProd, 10, 3, 30},
		{AccMin, 10, 3, 3},
		{AccMax, 10, 3, 10},
	}
	for _, c := range cases {
		c := c
		t.Run(c.op.String(), func(t *testing.T) {
			w := newWorld(t, runtime.Config{Ranks: 2})
			runBounded(t, w, time.Minute, func(p *runtime.Proc) {
				e := Attach(p, Options{})
				comm := p.Comm()
				if p.Rank() == 0 {
					tm, region := e.ExposeNew(8)
					buf := make([]byte, 8)
					binary.LittleEndian.PutUint64(buf, math.Float64bits(c.initial))
					p.WriteLocal(region, 0, buf)
					p.Send(1, 9999, tm.Encode())
					p.Recv(1, 1)
					got := math.Float64frombits(binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset, 8)))
					if got != c.want {
						t.Errorf("%v: %v op %v = %v, want %v", c.op, c.initial, c.operand, got, c.want)
					}
					return
				}
				enc, _ := p.Recv(0, 9999)
				tm, _ := DecodeTargetMem(enc)
				_, src := writeFloat64s(p, []float64{c.operand})
				if _, err := e.Accumulate(c.op, src, 1, datatype.Float64, tm, 0, 1, datatype.Float64, 0, comm, AttrBlocking); err != nil {
					t.Errorf("acc: %v", err)
				}
				e.Complete(comm, 0)
				p.Send(0, 1, nil)
			})
		})
	}
}

// TestAccumulateAxpy: target = scale*origin + target over float64s, the
// ARMCI-compatible accumulate.
func TestAccumulateAxpy(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(24)
			buf := make([]byte, 24)
			for i, v := range []float64{1, 2, 3} {
				binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
			}
			p.WriteLocal(region, 0, buf)
			p.Send(1, 9999, tm.Encode())
			p.Recv(1, 1)
			got := p.Mem().Snapshot(region.Offset, 24)
			for i, want := range []float64{1 + 2.5*10, 2 + 2.5*20, 3 + 2.5*30} {
				v := math.Float64frombits(binary.LittleEndian.Uint64(got[i*8:]))
				if v != want {
					t.Errorf("element %d = %v, want %v", i, v, want)
				}
			}
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		_, src := writeFloat64s(p, []float64{10, 20, 30})
		if _, err := e.AccumulateAxpy(2.5, src, 3, datatype.Float64, tm, 0, 3, datatype.Float64, 0, comm, AttrBlocking); err != nil {
			t.Errorf("axpy: %v", err)
		}
		e.Complete(comm, 0)
		p.Send(0, 1, nil)
	})
}

// TestCrossEndianPutGet: a little-endian origin puts int64s into a
// big-endian target; the target's local (big-endian) view decodes to the
// same values, and a get converts back.
func TestCrossEndianPutGet(t *testing.T) {
	w := newWorld(t, runtime.Config{
		Ranks: 2,
		ByteOrder: func(r int) datatype.ByteOrder {
			if r == 0 {
				return datatype.BigEndian
			}
			return datatype.LittleEndian
		},
	})
	defer w.Close()
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(16)
			p.Send(1, 9999, tm.Encode())
			p.Recv(1, 1)
			// The big-endian rank reads its own memory big-endian.
			got := p.Mem().Snapshot(region.Offset, 16)
			if v := int64(binary.BigEndian.Uint64(got[0:])); v != 0x1122334455667788 {
				t.Errorf("big-endian target holds %#x", v)
			}
			if v := int64(binary.BigEndian.Uint64(got[8:])); v != -42 {
				t.Errorf("big-endian target holds %d", v)
			}
			p.Send(1, 2, nil)
			p.Barrier()
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		if tm.Order != datatype.BigEndian {
			t.Error("descriptor lost the owner's byte order")
		}
		src := p.Alloc(16)
		buf := make([]byte, 16)
		neg := int64(-42)
		binary.LittleEndian.PutUint64(buf[0:], uint64(int64(0x1122334455667788)))
		binary.LittleEndian.PutUint64(buf[8:], uint64(neg))
		p.WriteLocal(src, 0, buf)
		if _, err := e.Put(src, 2, datatype.Int64, tm, 0, 2, datatype.Int64, 0, comm, AttrBlocking); err != nil {
			t.Errorf("put: %v", err)
		}
		e.Complete(comm, 0)
		p.Send(0, 1, nil)
		p.Recv(0, 2)
		// Get them back: values must round trip despite the endian flip.
		dst := p.Alloc(16)
		req, err := e.Get(dst, 2, datatype.Int64, tm, 0, 2, datatype.Int64, 0, comm, AttrNone)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		req.Wait()
		got := p.ReadLocal(dst, 0, 16)
		if !bytes.Equal(got, buf) {
			t.Error("cross-endian roundtrip mismatch")
		}
		p.Barrier()
	})
}

// TestCrossEndianAccumulate: arithmetic must happen on values, not raw
// bytes, when target and origin disagree on byte order.
func TestCrossEndianAccumulate(t *testing.T) {
	w := newWorld(t, runtime.Config{
		Ranks: 2,
		ByteOrder: func(r int) datatype.ByteOrder {
			if r == 0 {
				return datatype.BigEndian
			}
			return datatype.LittleEndian
		},
	})
	defer w.Close()
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(8)
			init := make([]byte, 8)
			binary.BigEndian.PutUint64(init, 100) // big-endian rank writes natively
			p.WriteLocal(region, 0, init)
			p.Send(1, 9999, tm.Encode())
			p.Recv(1, 1)
			got := int64(binary.BigEndian.Uint64(p.Mem().Snapshot(region.Offset, 8)))
			if got != 142 {
				t.Errorf("sum = %d, want 142", got)
			}
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(8)
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, 42)
		p.WriteLocal(src, 0, buf)
		if _, err := e.Accumulate(AccSum, src, 1, datatype.Int64, tm, 0, 1, datatype.Int64, 0, comm, AttrBlocking); err != nil {
			t.Errorf("acc: %v", err)
		}
		e.Complete(comm, 0)
		p.Send(0, 1, nil)
	})
}

// TestFetchAddConcurrent: RMW fetch-and-add from many ranks yields every
// intermediate value exactly once.
func TestFetchAddConcurrent(t *testing.T) {
	const origins = 4
	const iters = 25
	w := newWorld(t, runtime.Config{Ranks: origins + 1})
	seen := make([]atomic.Bool, origins*iters)
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			p.Barrier()
			got := int64(binary.LittleEndian.Uint64(p.Mem().Snapshot(0, 8)))
			_ = got
			return
		}
		for i := 0; i < iters; i++ {
			old, err := e.FetchAdd(tm, 0, 1, 0, comm, AttrNone)
			if err != nil {
				t.Errorf("fetchadd: %v", err)
				return
			}
			if old < 0 || old >= origins*iters {
				t.Errorf("fetchadd returned %d, out of range", old)
				return
			}
			if seen[old].Swap(true) {
				t.Errorf("value %d handed out twice", old)
			}
		}
		p.Barrier()
	})
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("ticket %d never issued", i)
		}
	}
}

// TestCompareSwap: only one of the contending swaps can win each round.
func TestCompareSwap(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 3})
	var wins atomic.Int64
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			p.Barrier()
			return
		}
		old, err := e.CompareSwap(tm, 0, 0, int64(p.Rank()), 0, comm, AttrNone)
		if err != nil {
			t.Errorf("cas: %v", err)
			return
		}
		if old == 0 {
			wins.Add(1)
		}
		p.Barrier()
	})
	if wins.Load() != 1 {
		t.Fatalf("%d CAS winners, want exactly 1", wins.Load())
	}
}

func TestRMWValidation(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 1 {
			if _, err := e.FetchAdd(tm, 4, 1, 0, comm, AttrNone); err == nil {
				t.Error("fetchadd straddling the region end should fail")
			}
			if _, err := e.FetchAdd(tm, -1, 1, 0, comm, AttrNone); err == nil {
				t.Error("negative displacement should fail")
			}
		}
		p.Barrier()
	})
}

// TestActiveMessages: the AM extension invokes registered handlers, counts
// toward Complete, and supports remote completion.
func TestActiveMessages(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	var calls atomic.Int64
	var lastPayload atomic.Value
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			if err := e.RegisterAM(7, func(src int, payload []byte, at vtime.Time) {
				calls.Add(1)
				lastPayload.Store(append([]byte(nil), payload...))
			}); err != nil {
				t.Errorf("register: %v", err)
			}
			if err := e.RegisterAM(7, func(int, []byte, vtime.Time) {}); err == nil {
				t.Error("duplicate AM registration should fail")
			}
			p.Barrier()
			p.Barrier()
			return
		}
		p.Barrier() // handler registered
		req, err := e.InvokeAM(7, []byte("ping"), 0, comm, AttrRemoteComplete|AttrBlocking)
		if err != nil {
			t.Errorf("invoke: %v", err)
			return
		}
		if !req.Test() {
			t.Error("blocking AM incomplete")
		}
		if _, err := e.InvokeAM(7, []byte("pong"), 0, comm, AttrNone); err != nil {
			t.Errorf("invoke: %v", err)
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		p.Barrier()
	})
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", calls.Load())
	}
	if got := lastPayload.Load().([]byte); !bytes.Equal(got, []byte("pong")) {
		t.Fatalf("last payload %q", got)
	}
}

// TestUnregisteredAMCounted: an AM to an unknown id is dropped but still
// counted so Complete does not deadlock.
func TestUnregisteredAM(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 1 {
			if _, err := e.InvokeAM(99, nil, 0, comm, AttrNone); err != nil {
				t.Errorf("invoke: %v", err)
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Errorf("complete must not hang on a bad AM: %v", err)
			}
		}
		p.Barrier()
	})
}

// TestXferDispatch: the single-interface form routes to the right
// operation.
func TestXferDispatch(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(8)
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, 5)
			p.WriteLocal(region, 0, buf)
			p.Send(1, 9999, tm.Encode())
			p.Recv(1, 1)
			got := int64(binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset, 8)))
			if got != 12 { // 5 + 7 via Xfer(OpAccumulate, AccSum)
				t.Errorf("value %d, want 12", got)
			}
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(8)
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, 7)
		p.WriteLocal(src, 0, buf)
		if _, err := e.Xfer(OpAccumulate, AccSum, src, 1, datatype.Int64, tm, 0, 1, datatype.Int64, 0, comm, AttrBlocking); err != nil {
			t.Errorf("xfer acc: %v", err)
		}
		// Xfer get reads it back.
		dst := p.Alloc(8)
		req, err := e.Xfer(OpGet, AccNone, dst, 1, datatype.Int64, tm, 0, 1, datatype.Int64, 0, comm, AttrNone)
		if err != nil {
			t.Errorf("xfer get: %v", err)
			return
		}
		req.Wait()
		if got := int64(binary.LittleEndian.Uint64(p.ReadLocal(dst, 0, 8))); got != 12 {
			t.Errorf("xfer get = %d, want 12", got)
		}
		if _, err := e.Xfer(OpType(99), AccNone, src, 1, datatype.Int64, tm, 0, 1, datatype.Int64, 0, comm, AttrNone); err == nil {
			t.Error("unknown op type accepted")
		}
		e.Complete(comm, 0)
		p.Send(0, 1, nil)
	})
}

// TestAddrBits32Validation: a 32-bit target's address space bounds
// accesses.
func TestAddrBits32(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{AddrBits: 32})
		comm := p.Comm()
		tm := shipTM(p, e, 64)
		if p.Rank() == 1 {
			if tm.AddrBits != 32 {
				t.Errorf("descriptor AddrBits = %d", tm.AddrBits)
			}
			src := p.Alloc(8)
			// In-range access works fine.
			if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrBlocking); err != nil {
				t.Errorf("put: %v", err)
			}
			e.Complete(comm, 0)
		}
		p.Barrier()
	})
}

// TestXferInvoke: the optype expansion routes Xfer to a remote method
// invocation.
func TestXferInvoke(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	var got atomic.Value
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			if err := e.RegisterAM(4, func(src int, payload []byte, at vtime.Time) {
				got.Store(append([]byte(nil), payload...))
			}); err != nil {
				t.Errorf("register: %v", err)
			}
			p.Barrier()
			p.Barrier()
			return
		}
		p.Barrier()
		src := p.Alloc(4)
		p.WriteLocal(src, 0, []byte{0xFE, 0xED, 0xFA, 0xCE})
		// tdisp = handler id 4; target_mem unused for invoke.
		req, err := e.Xfer(OpInvoke, AccNone, src, 4, datatype.Byte, TargetMem{}, 4, 4, datatype.Byte, 0, comm, AttrRemoteComplete|AttrBlocking)
		if err != nil {
			t.Errorf("xfer invoke: %v", err)
			return
		}
		if !req.Test() {
			t.Error("blocking invoke incomplete")
		}
		if _, err := e.Xfer(OpInvoke, AccNone, src, 4, datatype.Byte, TargetMem{}, -1, 4, datatype.Byte, 0, comm, AttrNone); err == nil {
			t.Error("negative handler id accepted")
		}
		p.Barrier()
	})
	if b, ok := got.Load().([]byte); !ok || !bytes.Equal(b, []byte{0xFE, 0xED, 0xFA, 0xCE}) {
		t.Fatalf("handler payload %v", got.Load())
	}
}

// TestPutGetNeverTorn pins the property the queue's one-put publication
// and the dht's one-Get snapshot stand on: a put and a get at one target
// never interleave. Two writers put 3-word [v|v|v] patterns at one
// displacement while a reader gets it; every read must return three equal
// words. It runs on the serial engine, on four shards with the put
// spanning shard boundaries (designated-shard path), and on an unordered
// network under the drop + dup + delay + corrupt plan with reliable
// delivery.
func TestPutGetNeverTorn(t *testing.T) {
	plans := chaosPlans()
	for _, tc := range []struct {
		name  string
		cfg   runtime.Config
		topts Options
	}{
		{"serial", runtime.Config{Ranks: 4, Seed: 51}, Options{}},
		{"sharded spanning", runtime.Config{Ranks: 4, Seed: 52}, Options{ApplyShards: 4}},
		{"unordered faulted", runtime.Config{Ranks: 4, Seed: 53, UnorderedNet: true, Faults: plans[len(plans)-1].plan}, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) { putGetNeverTorn(t, tc.cfg, tc.topts) })
	}
}

func putGetNeverTorn(t *testing.T, cfg runtime.Config, topts Options) {
	// A 48-byte exposure on four shards has 12-byte shards, so the 24 bytes
	// at displacement 8 span three of them.
	const size, disp, minRounds, minReads = 48, 8, 50, 100
	var writersDone, reads atomic.Int64
	var target *Engine
	distinct := map[uint64]bool{}
	w := newWorld(t, cfg)
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = topts
		}
		e := Attach(p, opts)
		comm := p.Comm()
		tm := shipTM(p, e, size)
		buf := p.Alloc(24)
		p.Barrier()
		switch p.Rank() {
		case 0:
			target = e
		case 1, 2:
			// Write until the reader has read enough, so reads overlap puts.
			// Both sides yield after each operation: a call that delivers
			// inline never blocks, and on one scheduler thread it would
			// otherwise run until preempted.
			for round := 0; round < minRounds || reads.Load() < minReads; round++ {
				v := uint64(p.Rank())<<32 | uint64(round+1)
				var pat [24]byte
				for i := 0; i < 3; i++ {
					binary.LittleEndian.PutUint64(pat[8*i:], v)
				}
				p.WriteLocal(buf, 0, pat[:])
				if _, err := e.Put(buf, 3, datatype.Int64, tm, disp, 3, datatype.Int64, 0, comm, AttrNotify); err != nil {
					t.Errorf("rank %d put: %v", p.Rank(), err)
					panic("torn: put failed")
				}
				if err := e.Complete(comm, 0); err != nil {
					t.Errorf("rank %d complete: %v", p.Rank(), err)
					panic("torn: complete failed")
				}
				pollYield()
			}
			writersDone.Add(1)
		case 3:
			for reads.Load() < minReads || writersDone.Load() < 2 {
				if _, err := e.Get(buf, 3, datatype.Int64, tm, disp, 3, datatype.Int64, 0, comm, AttrBlocking); err != nil {
					t.Errorf("get: %v", err)
					panic("torn: get failed")
				}
				got := p.ReadLocal(buf, 0, 24)
				a, b, c := binary.LittleEndian.Uint64(got), binary.LittleEndian.Uint64(got[8:]), binary.LittleEndian.Uint64(got[16:])
				if a != b || b != c {
					t.Errorf("read %d is torn: [%#x | %#x | %#x]", reads.Load(), a, b, c)
				}
				distinct[a] = true
				reads.Add(1)
				pollYield()
			}
		}
		p.Barrier()
	})
	if len(distinct) < 2 {
		t.Errorf("the reader saw %d distinct patterns: its gets never overlapped the puts", len(distinct))
	}
	if topts.ApplyShards > 0 && target.ShardDesignated.Value() == 0 {
		t.Error("no put took the designated shard: the pattern did not span shards")
	}
}
