package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
)

// Recycle safety. The target carries every incoming operation in a record
// taken from a per-engine free list and released in applyOp.fin; blocked
// calls sleep on reused wake slots. A record released while something still
// holds it — the reorder buffer, a serializer task, a deferred
// completion waiting for the buddy's replica — would be handed to the next
// operation under the holder's feet. This test puts every such holder to
// work at once: four origins issue ordered chains (held by the reorder
// buffer on an unordered network), atomic accumulates (serializer tasks),
// remote-complete puts, gets and compare-and-swaps against one target under
// the seeded drop + duplicate + delay + corrupt plan with reliable delivery.
// Two of them work on a region exposed before replication was enabled,
// whose operations end inside the call that started them; the other two on
// a replicated region, where every mutation's completion is deferred to the
// buddy's acknowledgement.
//
// It runs twice per apply engine. Recycled, as in production, the race
// detector sees any touch of a record after its release as a race with the
// next operation's writes. Quarantined, released records never come back:
// each stays cleared and marked free for good, so a stale touch cannot hide
// behind a reuse — applyOp.live panics on it, which fails the run. Either
// way the target's memory must end byte-exact and no rank may count a bad
// request.

const (
	rcOrigins = 4
	rcRounds  = 8
	rcChain   = 6 // ordered puts per round
	// Per-origin layout on the target: the ordered slot, the accumulate
	// slot, the remote-complete slot, the compare-and-swap word.
	rcOrdered, rcAcc, rcRemote, rcCAS, rcStride = 0, 8, 16, 24, 32
)

func TestRecycleSafetyChaos(t *testing.T) {
	for _, tc := range []struct {
		name       string
		quarantine bool
		topts      Options
	}{
		{"recycled", false, Options{}},
		{"quarantined", true, Options{}},
		{"recycled sharded", false, Options{ApplyShards: 4}},
		{"quarantined sharded", true, Options{ApplyShards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) { recycleChaos(t, tc.quarantine, tc.topts) })
	}
}

func recycleChaos(t *testing.T, quarantine bool, topts Options) {
	plans := chaosPlans()
	plan := plans[len(plans)-1].plan // drop + dup + delay + corrupt
	w := newWorld(t, runtime.Config{Ranks: rcOrigins + 1, UnorderedNet: true, Seed: 23, Faults: plan})
	size := rcOrigins * rcStride
	final := make([]byte, size)
	var held int64
	runBounded(t, w, 2*time.Minute, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = topts
		}
		e := Attach(p, opts)
		if quarantine {
			e.ops.limit = 0 // fin's put keeps nothing
		}
		comm := p.Comm()
		if p.Rank() == 0 {
			// Exposed before EnableReplication, plain stays unreplicated.
			plain, plainRegion := e.ExposeNew(size / 2)
			if err := e.EnableReplication(); err != nil {
				t.Errorf("enable replication: %v", err)
				panic("recycle: replication unavailable")
			}
			p.Barrier() // every engine is set up before the first frame flies
			mirrored, mirroredRegion := e.ExposeNew(size / 2)
			for r := 1; r <= rcOrigins; r++ {
				tm := plain
				if r > rcOrigins/2 {
					tm = mirrored
				}
				p.Send(r, 7, tm.Encode())
			}
			p.Barrier()
			copy(final, p.Mem().Snapshot(plainRegion.Offset, size/2))
			copy(final[size/2:], p.Mem().Snapshot(mirroredRegion.Offset, size/2))
			held = e.HeldOps.Value()
			return
		}
		if err := e.EnableReplication(); err != nil {
			t.Errorf("enable replication: %v", err)
			panic("recycle: replication unavailable")
		}
		p.Barrier()
		enc, _ := p.Recv(0, 7)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Errorf("decode: %v", err)
			panic("recycle: no descriptor")
		}
		base := (p.Rank() - 1) % (rcOrigins / 2) * rcStride
		src, back := p.Alloc(8), p.Alloc(8)
		word := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			p.WriteLocal(src, 0, b[:])
		}
		must := func(what string, err error) {
			if err != nil {
				t.Errorf("rank %d %s: %v", p.Rank(), what, err)
				panic("recycle: operation failed")
			}
		}
		for round := 0; round < rcRounds; round++ {
			// An ordered chain to one word: the last value must win although
			// the network delivers the chain in any order.
			for i := 0; i < rcChain; i++ {
				word(uint64(p.Rank())<<32 | uint64(round*rcChain+i))
				_, err := e.Put(src, 1, datatype.Int64, tm, base+rcOrdered, 1, datatype.Int64, 0, comm, AttrOrdering)
				must("ordered put", err)
			}
			word(uint64(p.Rank()*100 + round))
			_, err := e.Accumulate(AccSum, src, 1, datatype.Int64, tm, base+rcAcc, 1, datatype.Int64, 0, comm, AttrAtomic)
			must("atomic accumulate", err)

			want := uint64(p.Rank())<<48 | uint64(round)
			word(want)
			_, err = e.Put(src, 1, datatype.Int64, tm, base+rcRemote, 1, datatype.Int64, 0, comm, AttrRemoteComplete|AttrBlocking)
			must("remote-complete put", err)
			_, err = e.Get(back, 1, datatype.Int64, tm, base+rcRemote, 1, datatype.Int64, 0, comm, AttrBlocking)
			must("get", err)
			if got := binary.LittleEndian.Uint64(p.Mem().Snapshot(back.Offset, 8)); got != want {
				t.Errorf("rank %d round %d: get returned %#x, want the preceding put's %#x", p.Rank(), round, got, want)
			}

			old, err := e.CompareSwap(tm, base+rcCAS, int64(round), int64(round+1), 0, comm, 0)
			must("compare-and-swap", err)
			if old != int64(round) {
				t.Errorf("rank %d round %d: compare-and-swap saw %d", p.Rank(), round, old)
			}
			must("complete", e.Complete(comm, 0))
		}
		p.Barrier()
	})

	want := make([]byte, size)
	for r := 1; r <= rcOrigins; r++ {
		slot := want[(r-1)*rcStride:]
		binary.LittleEndian.PutUint64(slot[rcOrdered:], uint64(r)<<32|uint64(rcRounds*rcChain-1))
		sum := 0
		for round := 0; round < rcRounds; round++ {
			sum += r*100 + round
		}
		binary.LittleEndian.PutUint64(slot[rcAcc:], uint64(sum))
		binary.LittleEndian.PutUint64(slot[rcRemote:], uint64(r)<<48|uint64(rcRounds-1))
		binary.LittleEndian.PutUint64(slot[rcCAS:], rcRounds)
	}
	if !bytes.Equal(final, want) {
		t.Errorf("target memory ends as\n%x\nwant\n%x", final, want)
	}
	for r := 0; r <= rcOrigins; r++ {
		if n := w.Proc(r).NIC().BadReq.Value(); n != 0 {
			t.Errorf("rank %d counted %d bad requests", r, n)
		}
	}
	if held == 0 {
		t.Error("the reorder buffer held nothing: the ordered chains never arrived out of order")
	}
	if w.Net().Retries.Value() == 0 {
		t.Error("no frame was retransmitted: the fault plan never fired")
	}
	if quarantine {
		if e := Attached(w.Proc(0)); e.ops.get() != nil {
			t.Error("a quarantined record came back to the free list")
		}
	}
}
