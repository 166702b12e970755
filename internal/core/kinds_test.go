package core

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
)

// accKindCase drives one accumulate through a given element kind and op.
type accKindCase struct {
	name    string
	dt      datatype.Type
	width   int
	encode  func(buf []byte, v float64)
	decode  func(buf []byte) float64
	op      AccOp
	initial float64
	operand float64
	want    float64
}

func accCases() []accKindCase {
	i32 := func(buf []byte, v float64) { binary.LittleEndian.PutUint32(buf, uint32(int32(v))) }
	di32 := func(buf []byte) float64 { return float64(int32(binary.LittleEndian.Uint32(buf))) }
	i64 := func(buf []byte, v float64) { binary.LittleEndian.PutUint64(buf, uint64(int64(v))) }
	di64 := func(buf []byte) float64 { return float64(int64(binary.LittleEndian.Uint64(buf))) }
	f32 := func(buf []byte, v float64) { binary.LittleEndian.PutUint32(buf, math.Float32bits(float32(v))) }
	df32 := func(buf []byte) float64 { return float64(math.Float32frombits(binary.LittleEndian.Uint32(buf))) }
	b8 := func(buf []byte, v float64) { buf[0] = byte(v) }
	db8 := func(buf []byte) float64 { return float64(buf[0]) }
	return []accKindCase{
		{"int32-sum", datatype.Int32, 4, i32, di32, AccSum, 7, -3, 4},
		{"int32-prod", datatype.Int32, 4, i32, di32, AccProd, 6, -2, -12},
		{"int32-min", datatype.Int32, 4, i32, di32, AccMin, 5, -9, -9},
		{"int32-max", datatype.Int32, 4, i32, di32, AccMax, 5, -9, 5},
		{"int64-prod", datatype.Int64, 8, i64, di64, AccProd, 11, 3, 33},
		{"int64-min", datatype.Int64, 8, i64, di64, AccMin, -4, 2, -4},
		{"float32-sum", datatype.Float32, 4, f32, df32, AccSum, 1.5, 2.25, 3.75},
		{"float32-prod", datatype.Float32, 4, f32, df32, AccProd, 2, 4.5, 9},
		{"float32-max", datatype.Float32, 4, f32, df32, AccMax, -1, 3, 3},
		{"float32-axpy", datatype.Float32, 4, f32, df32, AccAxpy, 1, 2, 5},  // 1 + 2*2
		{"byte-sum", datatype.Byte, 1, b8, db8, AccSum, 200, 57, 257 - 256}, // uint8 wrap
		{"byte-min", datatype.Byte, 1, b8, db8, AccMin, 9, 4, 4},
		{"byte-max", datatype.Byte, 1, b8, db8, AccMax, 9, 4, 9},
	}
}

// TestAccumulateElementKinds exercises combineElem for every kind/op pair
// end to end (the AccumulateOps test covers float64).
func TestAccumulateElementKinds(t *testing.T) {
	for _, c := range accCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, runtime.Config{Ranks: 2})
			runBounded(t, w, time.Minute, func(p *runtime.Proc) {
				e := Attach(p, Options{})
				comm := p.Comm()
				if p.Rank() == 0 {
					tm, region := e.ExposeNew(c.width)
					buf := make([]byte, c.width)
					c.encode(buf, c.initial)
					p.WriteLocal(region, 0, buf)
					p.Send(1, 9999, tm.Encode())
					p.Recv(1, 1)
					got := c.decode(p.Mem().Snapshot(region.Offset, c.width))
					if got != c.want {
						t.Errorf("%s: %v op %v = %v, want %v", c.name, c.initial, c.operand, got, c.want)
					}
					return
				}
				enc, _ := p.Recv(0, 9999)
				tm, _ := DecodeTargetMem(enc)
				src := p.Alloc(c.width)
				buf := make([]byte, c.width)
				c.encode(buf, c.operand)
				p.WriteLocal(src, 0, buf)
				var err error
				if c.op == AccAxpy {
					_, err = e.AccumulateAxpy(2.0, src, 1, c.dt, tm, 0, 1, c.dt, 0, comm, AttrBlocking)
				} else {
					_, err = e.Accumulate(c.op, src, 1, c.dt, tm, 0, 1, c.dt, 0, comm, AttrBlocking)
				}
				if err != nil {
					t.Errorf("acc: %v", err)
				}
				e.Complete(comm, 0)
				p.Send(0, 1, nil)
			})
		})
	}
}

// TestRequestWaitImpliesTest: once Wait returns on a remote-complete put,
// Test agrees that the request is done.
func TestRequestWaitImpliesTest(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 1 {
			src := p.Alloc(8)
			req, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrRemoteComplete)
			if err != nil {
				t.Errorf("put: %v", err)
				return
			}
			req.Wait()
			if !req.Test() {
				t.Error("Wait returned but Test is false")
			}
			e.Complete(comm, 0)
		}
		p.Barrier()
	})
}

// TestCarriedLockRelease: under the coarse-lock serializer an atomic put
// acquires the target's lock and carries its release (flagUnlockAfter),
// so the lock is reacquirable by the next atomic put, both land, and the
// lock ends free with one uncontended grant per put.
func TestCarriedLockRelease(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: serializer.MechCoarseLock})
		tm := shipTM(p, e, 16)
		if p.Rank() == 1 {
			src := p.Alloc(8)
			for i := 0; i < 2; i++ {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(i+1))
				p.WriteLocal(src, 0, b[:])
				if _, err := e.Put(src, 8, datatype.Byte, tm, 8*i, 8, datatype.Byte, 0, p.Comm(), AttrAtomic|AttrBlocking); err != nil {
					t.Errorf("atomic put %d: %v", i, err)
					break
				}
			}
			if err := e.Complete(p.Comm(), 0); err != nil {
				t.Errorf("complete: %v", err)
			}
			p.Send(0, 1, nil)
			return
		}
		p.Recv(1, 1)
		for i := 0; i < 2; i++ {
			if got := binary.LittleEndian.Uint64(p.Mem().Snapshot(e.lookupExposure(tm.Handle).region.Offset+8*i, 8)); got != uint64(i+1) {
				t.Errorf("word %d = %d, want %d", i, got, i+1)
			}
		}
		grants, contended := e.LockStats()
		if grants != 2 || contended != 0 {
			t.Errorf("grants=%d contended=%d, want 2/0", grants, contended)
		}
		if e.lock.Holder() != -1 {
			t.Errorf("lock still held by %d", e.lock.Holder())
		}
	})
}
