package core

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
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

// releaseLockExplicit releases a lock held by this rank with the standalone
// release message, which no engine path sends today: an atomic operation
// carries its release (flagUnlockAfter).
func releaseLockExplicit(e *Engine, world int) error {
	m := e.newMsg(world, kLockRel, 0)
	if _, err := e.proc.NIC().Send(e.proc.Now(), &m.Message); err != nil {
		return err
	}
	e.proc.NIC().CPU().AdvanceTo(m.SentAt)
	return nil
}

// TestExplicitLockRelease exercises the standalone release message.
func TestExplicitLockRelease(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		if p.Rank() == 1 {
			if err := e.acquireLock(0); err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			if err := releaseLockExplicit(e, 0); err != nil {
				t.Errorf("release: %v", err)
				return
			}
			// The lock must be reacquirable after the explicit release.
			if err := e.acquireLock(0); err != nil {
				t.Errorf("reacquire: %v", err)
				return
			}
			if err := releaseLockExplicit(e, 0); err != nil {
				t.Errorf("re-release: %v", err)
			}
			p.Send(0, 1, nil)
			return
		}
		p.Recv(1, 1)
		// Both grants happened and the lock ends free.
		grants, contended := e.LockStats()
		if grants != 2 || contended != 0 {
			t.Errorf("grants=%d contended=%d, want 2/0", grants, contended)
		}
		if e.lock.Holder() != -1 {
			t.Errorf("lock still held by %d", e.lock.Holder())
		}
	})
}
