package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// TestStaleIDCompletesNothing: a frame finds its request by slot, and only
// the generation its id carries tells the slot's occupants apart. Request
// A, a real get, completes and frees its slot; request B takes the same
// slot. An ack, a get reply and an RMW reply carrying A's id then arrive
// late: B must stay pending, its landing untouched, and each stale frame
// is released once, by its handler, like any other. B's own ack completes
// it exactly once, and a duplicate of that ack completes nothing more.
// Frames are quarantined, so a handler touching one after consuming it
// reads poison.
func TestStaleIDCompletesNothing(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			p.Barrier()
			return
		}
		defer p.Barrier() // a failure below must not wedge the target
		e.quarantine = true
		comm := p.Comm()
		dst := p.Alloc(8)
		a, err := e.Get(dst, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, 0)
		if err == nil {
			err = a.Await()
		}
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		held := heldSlots(e)

		b := pendingRequest(e, 0)
		if a.id>>slotShift != b.id>>slotShift || a.id == b.id {
			t.Errorf("B (id %#x) does not reuse A's slot (id %#x) under a new generation", b.id, a.id)
			return
		}
		landed := bytes.Repeat([]byte{0x5a}, 8)
		p.WriteLocal(dst, 0, landed)
		b.land = landing{region: dst, count: 8, dt: datatype.Byte}
		done := 0
		b.OnDone(func(error) { done++ })

		deliver := func(kind uint8, id uint64, payload []byte, handle func(*simnet.Message, vtime.Time)) {
			t.Helper()
			m := e.newMsg(1, kind, len(payload))
			m.Src = 0
			m.Hdr[hReq] = id
			copy(m.Payload, payload)
			handle(&m.Message, p.Now())
			if !m.Release() { // the sender's release, after the handler's
				t.Errorf("kind %d frame for id %#x was not released once by its handler", kind, id)
			}
		}
		value := bytes.Repeat([]byte{0xee}, 8)
		deliver(kAck, a.id, nil, e.handleAck)
		deliver(kGetReply, a.id, value, e.handleGetReply)
		deliver(kRMWReply, a.id, value, e.handleRMWReply)
		// Ids that name no slot, or one past the slab, claim nothing either.
		deliver(kAck, b.id&(1<<slotShift-1), nil, e.handleAck)
		deliver(kAck, uint64(len(e.slab)+1)<<slotShift|b.id&(1<<slotShift-1), nil, e.handleAck)
		if b.Test() || done != 0 {
			t.Errorf("a frame naming A's id completed B (done %v, OnDone ran %d times)", b.Test(), done)
			return
		}
		if got := p.ReadLocal(dst, 0, 8); !bytes.Equal(got, landed) {
			t.Errorf("a stale get reply landed in B's buffer: %x", got)
		}
		if got := heldSlots(e); got != held+1 {
			t.Errorf("%d slots held with B pending, want %d", got, held+1)
		}

		deliver(kAck, b.id, nil, e.handleAck)
		deliver(kAck, b.id, nil, e.handleAck)
		if !b.Test() || done != 1 {
			t.Errorf("B's ack and its duplicate: done %v, OnDone ran %d times; want done, once", b.Test(), done)
		}
		if got := heldSlots(e); got != held {
			t.Errorf("%d slots held once B completed, want %d", got, held)
		}
	})
}

// TestRingMemberFailsWithItsTarget: a remote-complete put waiting in its
// issue ring is pending toward its target from issue on, not from the
// ring's flush. The failure pings name the target meanwhile, and a death
// noticed before any flush fails the put with ErrRankFailed.
func TestRingMemberFailsWithItsTarget(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{BatchOps: 8})
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			p.Barrier()
			return
		}
		defer p.Barrier()
		r, err := e.Put(p.Alloc(8), 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, p.Comm(), AttrRemoteComplete)
		if err != nil {
			t.Errorf("put: %v", err)
			return
		}
		if got := e.awaitedPeers(); !slices.Equal(got, []int{0}) {
			t.Errorf("awaited peers with the put in its ring = %v, want [0]", got)
		}
		e.onRankDead(0, p.Now(), errors.New("declared by the test"))
		if !r.Test() {
			t.Errorf("the put is still pending after its target's death")
			return
		}
		if err := r.Err(); !errors.Is(err, ErrRankFailed) {
			t.Errorf("put completed with %v, want ErrRankFailed", err)
		}
		if got := e.awaitedPeers(); len(got) != 0 {
			t.Errorf("awaited peers after the death = %v, want none", got)
		}
	})
}

// TestFailedIssueIsRecorded: an operation that fails to issue writes its
// request-done flight record with the error, request or not. A blocking
// atomic put under the coarse-grain lock protocol waits for a lock grant
// that cannot come, since the rank holds the target's lock itself, until
// the target is declared dead.
func TestFailedIssueIsRecorded(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: serializer.MechCoarseLock})
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			p.Barrier()
			return
		}
		defer p.Barrier()
		enableFlight(t, e)
		if err := e.acquireLock(0); err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		held, at := heldSlots(e), p.Now()
		go func() {
			for heldSlots(e) == held { // until the put's lock request is out
				time.Sleep(time.Millisecond)
			}
			e.onRankDead(0, at, errors.New("declared by the test"))
		}()
		_, err := e.Put(p.Alloc(8), 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, p.Comm(), AttrBlocking|AttrAtomic)
		if !errors.Is(err, ErrRankFailed) {
			t.Errorf("put returned %v, want ErrRankFailed", err)
			return
		}
		n := 0
		for _, ev := range e.FlightRecorder().Ring().Snapshot() {
			if ev.Kind == trace.KindRequestDone && ev.ID>>slotShift == 0 { // not the lock request's
				n++
				if !errors.Is(ev.Err, ErrRankFailed) {
					t.Errorf("the put's request-done record carries %v, want ErrRankFailed", ev.Err)
				}
			}
		}
		if n != 1 {
			t.Errorf("%d request-done records for the put, want 1", n)
		}
	})
}
