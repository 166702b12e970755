package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
)

// TestReplicationMirrorsEveryMutation: with buddy replication on and a
// fault-free wire, every mutating kind — a singleton put, a batched put,
// an accumulate, a fetch-and-add and a compare-and-swap — reaches the
// buddy's replica before its origin sees it complete. Once every origin's
// Complete has returned, each region equals its buddy's replica byte for
// byte, and holds what the origins wrote.
func TestReplicationMirrorsEveryMutation(t *testing.T) {
	const ranks, slot = 3, 64
	size := ranks * slot
	engines := make([]*Engine, ranks)
	w := newWorld(t, runtime.Config{Ranks: ranks})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		me, comm := p.Rank(), p.Comm()
		e := Attach(p, Options{BatchOps: 4})
		if err := e.EnableReplication(); err != nil {
			t.Errorf("rank %d: enable replication: %v", me, err)
			return
		}
		engines[me] = e
		tms, region, err := e.ExposeCollective(comm, size)
		if err != nil {
			t.Errorf("rank %d: expose: %v", me, err)
			return
		}
		src := p.Alloc(16)
		p.WriteLocal(src, 0, bytes.Repeat([]byte{byte(me + 1)}, 16))
		for tgt := 0; tgt < ranks; tgt++ {
			if tgt == me {
				continue
			}
			tm, at := tms[tgt], me*slot
			// [0,16) a blocking put pays its own message; [16,32) a
			// nonblocking one rides the batch; [32,40) sums one word twice.
			if _, err := e.Put(src, 16, datatype.Byte, tm, at, 16, datatype.Byte, tgt, comm, AttrBlocking); err != nil {
				t.Errorf("rank %d: put to %d: %v", me, tgt, err)
			}
			if _, err := e.Put(src, 16, datatype.Byte, tm, at+16, 16, datatype.Byte, tgt, comm, AttrNone); err != nil {
				t.Errorf("rank %d: batched put to %d: %v", me, tgt, err)
			}
			for range 2 {
				if _, err := e.Accumulate(AccSum, src, 1, datatype.Int64, tm, at+32, 1, datatype.Int64, tgt, comm, AttrNone); err != nil {
					t.Errorf("rank %d: accumulate to %d: %v", me, tgt, err)
				}
			}
			if _, err := e.FetchAdd(tm, at+40, 5, tgt, comm, AttrNone); err != nil {
				t.Errorf("rank %d: fetch-and-add to %d: %v", me, tgt, err)
			}
			if _, err := e.CompareSwap(tm, at+48, 0, 7, tgt, comm, AttrNone); err != nil {
				t.Errorf("rank %d: compare-and-swap to %d: %v", me, tgt, err)
			}
		}
		if err := e.Complete(comm); err != nil {
			t.Errorf("rank %d: complete: %v", me, err)
		}
		p.Barrier() // every origin's operations are complete, so mirrored

		got := p.Mem().Snapshot(region.Offset, size)
		for o := 0; o < ranks; o++ {
			want := make([]byte, slot)
			if o != me {
				copy(want, bytes.Repeat([]byte{byte(o + 1)}, 32))
				binary.LittleEndian.PutUint64(want[32:], 2*binary.LittleEndian.Uint64(bytes.Repeat([]byte{byte(o + 1)}, 8)))
				binary.LittleEndian.PutUint64(want[40:], 5)
				binary.LittleEndian.PutUint64(want[48:], 7)
			}
			if !bytes.Equal(got[o*slot:(o+1)*slot], want) {
				t.Errorf("rank %d: origin %d's slot = %x, want %x", me, o, got[o*slot:(o+1)*slot], want)
			}
		}
		buddy, ok := e.Buddy()
		if !ok || buddy != (me+1)%ranks {
			t.Errorf("rank %d: buddy = %d, %v; want %d", me, buddy, ok, (me+1)%ranks)
			return
		}
		st := &engines[buddy].repl
		st.mu.Lock()
		var replica []byte
		if r := st.replicas[replKey{me, tms[me].Handle}]; r != nil {
			replica = bytes.Clone(r.buf)
		}
		st.mu.Unlock()
		if len(replica) < size || !bytes.Equal(replica[:size], got) {
			t.Errorf("rank %d: buddy %d's replica %x differs from the region %x", me, buddy, replica, got)
		}
		p.Barrier() // no rank returns while another still reads its replica
	})
}
