package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
	"unsafe"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
)

// Recycle safety. The target carries every incoming operation in a record
// that rides in the operation's frame and is released in applyOp.fin, just
// before the frame; blocked calls sleep on reused wake slots. A record
// released while something still holds it — the reorder buffer, a serializer task, a deferred
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
// detector sees any touch of a record or a frame after its release as a
// race with the next operation's writes. Quarantined, released records and
// consumed frames never come back: each record stays cleared and marked
// free for good, so a stale touch cannot hide behind a reuse —
// applyOp.live panics on it, which fails the run — and each frame is
// poisoned. Either way the target's memory must end byte-exact and no rank
// may count a bad request.

const (
	rcOrigins = 4
	rcRounds  = 8
	rcChain   = 6 // ordered puts per round
	// Per-origin layout on the target: the ordered slot, the accumulate
	// slot, the remote-complete slot, the compare-and-swap word.
	rcOrdered, rcAcc, rcRemote, rcCAS, rcStride = 0, 8, 16, 24, 32
)

func TestRecycleSafetyChaos(t *testing.T) {
	plans := chaosPlans()
	chaos := recycleWorld{
		cfg:       runtime.Config{UnorderedNet: true, Seed: 23, Faults: plans[len(plans)-1].plan}, // drop + dup + delay + corrupt
		replicate: true,
	}
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
		t.Run(tc.name, func(t *testing.T) { recycleSafety(t, chaos, tc.quarantine, tc.topts) })
	}
}

// TestRecycleSafetyFrames runs the same mix on lossless worlds without the
// relay, where wire frames really go back to their senders (frame.go): an
// ordered world, whose four origins meet at the target's delivery token so
// that inline deliveries mix with backlogged ones; an unordered one, whose
// reorder buffers hold frames past their senders' look; and one with a
// replicated region, whose completions wait for the buddy. Quarantined,
// a consumed frame is poisoned and never reused, so a touch after the
// consume mark reads an unregistered kind, all-ones header words and
// 0xdb bytes, and fails the run.
func TestRecycleSafetyFrames(t *testing.T) {
	for _, w := range []struct {
		name string
		rw   recycleWorld
	}{
		{"ordered", recycleWorld{}},
		{"unordered", recycleWorld{cfg: runtime.Config{UnorderedNet: true, Seed: 29}}},
		{"replicated", recycleWorld{replicate: true}},
	} {
		for _, quarantine := range []bool{false, true} {
			name := w.name + " recycled"
			if quarantine {
				name = w.name + " quarantined"
			}
			t.Run(name, func(t *testing.T) { recycleSafety(t, w.rw, quarantine, Options{}) })
		}
	}
}

// recycleWorld is the world a recycle-safety run uses: its network (the
// rank count is set by the run) and whether the second half of the origins
// works on a replicated region.
type recycleWorld struct {
	cfg       runtime.Config
	replicate bool
}

func recycleSafety(t *testing.T, rw recycleWorld, quarantine bool, topts Options) {
	cfg := rw.cfg
	cfg.Ranks = rcOrigins + 1
	w := newWorld(t, cfg)
	size := rcOrigins * rcStride
	final := make([]byte, size)
	var held int64
	limit := 30 * time.Second // a lossless run takes milliseconds; a wedged one fails sooner
	if cfg.Faults != nil {
		limit = 2 * time.Minute
	}
	runBounded(t, w, limit, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = topts
		}
		e := Attach(p, opts)
		if quarantine {
			e.quarantine = true // a consumed frame, and the record in it, is never reused
		}
		enable := func() {
			if !rw.replicate {
				return
			}
			if err := e.EnableReplication(); err != nil {
				t.Errorf("enable replication: %v", err)
				panic("recycle: replication unavailable")
			}
		}
		comm := p.Comm()
		if p.Rank() == 0 {
			// Exposed before EnableReplication, plain stays unreplicated.
			plain, plainRegion := e.ExposeNew(size / 2)
			enable()
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
		enable()
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
	if cfg.UnorderedNet && held == 0 {
		t.Error("the reorder buffer held nothing: the ordered chains never arrived out of order")
	}
	if cfg.Faults != nil && w.Net().Retries.Value() == 0 {
		t.Error("no frame was retransmitted: the fault plan never fired")
	}
	var reused, parked int64
	for r := 0; r <= rcOrigins; r++ {
		e := Attached(w.Proc(r))
		reused += e.FramesReused.Value()
		parked += w.Proc(r).NIC().Parked.Value()
		if quarantine && e.spares.take() != nil {
			t.Errorf("rank %d kept a quarantined frame as a spare", r)
		}
	}
	switch {
	case quarantine && reused != 0:
		t.Errorf("%d quarantined frames were reused", reused)
	case !quarantine && cfg.Faults == nil && reused == 0:
		t.Error("no frame came back to its sender: the recycled run reused nothing")
	}
	if parked != 0 {
		// A poisoned kind parks, as no layer registers it.
		t.Errorf("%d messages parked for a kind with no handler", parked)
	}
}

// TestRecycleSafetyFramesReused: on an ordered lossless world with an idle
// target every put is delivered on its sender's goroutine, so every frame
// comes home: at least 99% of 1000 blocking 1 KiB puts take their frame
// from the spares rather than allocating one, and the metrics snapshot
// shows the same counts. A homecoming that stopped working would show
// here, not only as collector cycles.
func TestRecycleSafetyFramesReused(t *testing.T) {
	const puts, size = 1000, 1024
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, 30*time.Second, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		tm := shipTM(p, e, size)
		if p.Rank() == 0 {
			p.Barrier()
			return
		}
		reg := e.EnableTelemetry(nil)
		src := p.Alloc(size)
		reused, allocated := e.FramesReused.Value(), e.FramesAllocated.Value()
		for i := 0; i < puts; i++ {
			if _, err := e.Put(src, size, datatype.Byte, tm, 0, size, datatype.Byte, 0, p.Comm(), AttrBlocking); err != nil {
				t.Errorf("put %d: %v", i, err)
				break
			}
		}
		reused = e.FramesReused.Value() - reused
		allocated = e.FramesAllocated.Value() - allocated
		if reused+allocated != puts {
			t.Errorf("%d frames reused + %d allocated, want one per put (%d)", reused, allocated, puts)
		}
		if reused < puts*99/100 {
			t.Errorf("%d of %d put frames came from the spares, want at least 99%%", reused, puts)
		}
		snap := reg.Snapshot()
		if got, want := snap.Counters["frames.reused"], e.FramesReused.Value(); got != want {
			t.Errorf("metrics frames.reused = %d, counter %d", got, want)
		}
		if got, want := snap.Counters["frames.allocated"], e.FramesAllocated.Value(); got != want {
			t.Errorf("metrics frames.allocated = %d, counter %d", got, want)
		}
		p.Barrier()
	})
}

// TestRecycleSafetyContended: a frame is often consumed after its sender
// has let go of it, on another goroutine. Two origins meet at one target's
// delivery token, so a put is backlogged behind the other origin's and a
// reply is delivered into an origin whose token the target holds; on an
// unordered network the links' reorder buffers hold frames until a later
// send or a flush releases them. Such a frame must still come home, by its
// consumer's hand. Each origin makes blocking atomic puts to one shared
// word, blocking put-then-get rounds on a word of its own and
// compare-and-swap increments of a shared counter — ordered, so the
// unordered network keeps each origin's stream — under the thread
// serializer and under the coarse lock, whose request and grant frames
// come home too. The memory must end byte-exact and, past a warm-up, at
// most 5% of the frames of a recycled kind may be allocated rather than
// taken from the spares. Quarantined, no frame is ever reused and none is
// read after its consumer let go (poison would park or count a bad
// request).
func TestRecycleSafetyContended(t *testing.T) {
	for _, unordered := range []bool{false, true} {
		for _, mech := range []serializer.Mechanism{serializer.MechThread, serializer.MechCoarseLock} {
			for _, quarantine := range []bool{false, true} {
				name := mech.String()
				if unordered {
					name += " unordered"
				}
				if quarantine {
					name += " quarantined"
				}
				cfg := runtime.Config{Ranks: 3, UnorderedNet: unordered, Seed: 31}
				t.Run(name, func(t *testing.T) { recycleContended(t, cfg, mech, quarantine) })
			}
		}
	}
}

func recycleContended(t *testing.T, cfg runtime.Config, mech serializer.Mechanism, quarantine bool) {
	const (
		origins = 2 // cfg.Ranks is origins + 1
		warmup  = 50
		rounds  = warmup + 300
		// Target layout: the shared word, the shared counter, then one
		// word per origin.
		shared, counter, own = 0, 8, 16
	)
	w := newWorld(t, cfg)
	var final []byte
	var reused, allocated [2]int64 // summed over the ranks: after warm-up, at the end
	frames := func(at int) {
		for r := 0; r <= origins; r++ {
			e := Attached(w.Proc(r))
			reused[at] += e.FramesReused.Value()
			allocated[at] += e.FramesAllocated.Value()
		}
	}
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: mech})
		if quarantine {
			e.quarantine = true
		}
		tm := shipTM(p, e, own+8*origins)
		if p.Rank() == 0 {
			p.Barrier() // warm-up done
			frames(0)
			p.Barrier()
			p.Barrier() // origins done
			frames(1)
			final = p.Mem().Snapshot(e.lookupExposure(tm.Handle).region.Offset, tm.Size)
			return
		}
		comm, me := p.Comm(), p.Rank()
		src, back := p.Alloc(8), p.Alloc(8)
		word := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			p.WriteLocal(src, 0, b[:])
		}
		must := func(what string, err error) {
			if err != nil {
				t.Errorf("rank %d %s: %v", me, what, err)
				panic("recycle: operation failed")
			}
		}
		for round := 0; round < rounds; round++ {
			if round == warmup {
				p.Barrier()
				p.Barrier()
			}
			word(uint64(me)<<32 | uint64(round))
			_, err := e.Put(src, 1, datatype.Int64, tm, shared, 1, datatype.Int64, 0, comm, AttrAtomic|AttrOrdering|AttrBlocking)
			must("shared put", err)
			_, err = e.Put(src, 1, datatype.Int64, tm, own+8*(me-1), 1, datatype.Int64, 0, comm, AttrOrdering|AttrBlocking)
			must("own put", err)
			_, err = e.Get(back, 1, datatype.Int64, tm, own+8*(me-1), 1, datatype.Int64, 0, comm, AttrOrdering|AttrBlocking)
			must("get", err)
			if got := binary.LittleEndian.Uint64(p.ReadLocal(back, 0, 8)); got != uint64(me)<<32|uint64(round) {
				t.Errorf("rank %d round %d: get returned %#x after its own put", me, round, got)
			}
			for old := int64(0); ; {
				prev, err := e.CompareSwap(tm, counter, old, old+1, 0, comm, 0)
				must("compare-and-swap", err)
				if prev == old {
					break
				}
				old = prev
			}
		}
		must("complete", e.Complete(comm, 0))
		p.Barrier()
	})

	last := func(r int) uint64 { return uint64(r)<<32 | rounds - 1 }
	if got := binary.LittleEndian.Uint64(final[shared:]); got != last(1) && got != last(2) {
		t.Errorf("shared word ends %#x, want one origin's last put (%#x or %#x)", got, last(1), last(2))
	}
	if got := binary.LittleEndian.Uint64(final[counter:]); got != origins*rounds {
		t.Errorf("counter ends %d, want %d increments", got, origins*rounds)
	}
	for r := 1; r <= origins; r++ {
		if got := binary.LittleEndian.Uint64(final[own+8*(r-1):]); got != last(r) {
			t.Errorf("rank %d's word ends %#x, want %#x", r, got, last(r))
		}
	}
	for r := 0; r <= origins; r++ {
		if n := w.Proc(r).NIC().BadReq.Value(); n != 0 {
			t.Errorf("rank %d counted %d bad requests", r, n)
		}
		if n := w.Proc(r).NIC().Parked.Value(); n != 0 {
			t.Errorf("rank %d parked %d messages for a kind with no handler", r, n)
		}
	}
	reusedRun, allocatedRun := reused[1]-reused[0], allocated[1]-allocated[0]
	t.Logf("after warm-up: %d frames reused, %d allocated", reusedRun, allocatedRun)
	switch {
	case quarantine && reused[1] != 0:
		t.Errorf("%d quarantined frames were reused", reused[1])
	case !quarantine && allocatedRun*20 > reusedRun+allocatedRun:
		t.Errorf("%d of %d frames of a recycled kind were allocated after warm-up, want at most 5%%", allocatedRun, reusedRun+allocatedRun)
	}
}

// TestRecycleSafetyFrameLayout pins what a consumer relies on to turn the
// message it was handed back into its frame: Message is the frame's first
// field.
func TestRecycleSafetyFrameLayout(t *testing.T) {
	if off := unsafe.Offsetof(frame{}.Message); off != 0 {
		t.Fatalf("frame.Message sits at offset %d, want 0", off)
	}
}

// TestRecycleSafetyRecordOnlyInFrames: the target finds an operation's
// record inside the message's frame only when newMsg built the message. A
// plain simnet.Message of a core kind and a relay's copy of a frame get a
// record of their own, so nothing is written past their end.
func TestRecycleSafetyRecordOnlyInFrames(t *testing.T) {
	e := &Engine{}
	f := e.newMsg(0, kPut, 0)
	if r := e.takeOp(&f.Message); r != &f.op {
		t.Error("a frame's operation did not get the record inside the frame")
	}
	for name, m := range map[string]*simnet.Message{"plain message": {Kind: kPut}, "copy of a frame": f.Copy()} {
		a, b := e.takeOp(m), e.takeOp(m)
		if a == &f.op || a == b || a.m != m {
			t.Errorf("a %s did not get a record of its own", name)
		}
	}
}

// TestRecycleSafetySparesWaitOutClaimedCells: a put or take that has
// claimed a cell of the spare ring but not yet filled or emptied it (its
// goroutine preempted between the two steps) makes the others wait, not
// allocate a frame or drop one. A take behind a claimed put returns the
// frame once it lands; a put into a ring whose oldest cell a take has
// claimed keeps its frame.
func TestRecycleSafetySparesWaitOutClaimedCells(t *testing.T) {
	const stall = 20 * time.Millisecond
	var s spares
	early, late := &frame{}, &frame{}
	s.tail.Add(1) // a put claims position 0 and stalls
	s.put(late)   // position 1
	got := make(chan *frame, 1)
	go func() { got <- s.take() }()
	select {
	case f := <-got:
		t.Fatalf("take returned %p while the put at the head was in flight", f)
	case <-time.After(stall):
	}
	s.ring[0].f = early // the stalled put completes
	s.ring[0].seq.Store(1)
	if f := <-got; f != early {
		t.Fatalf("take returned %p, want the stalled put's frame %p", f, early)
	}
	if f := s.take(); f != late {
		t.Fatalf("second take returned %p, want %p", f, late)
	}

	var full spares
	frames := make([]*frame, spareCap+1)
	for i := range frames {
		frames[i] = &frame{}
	}
	for _, f := range frames[:spareCap] {
		full.put(f)
	}
	full.head.Add(1) // a take claims position 0 and stalls
	done := make(chan struct{})
	go func() { full.put(frames[spareCap]); close(done) }()
	select {
	case <-done:
		t.Fatal("put returned while the take at its cell was in flight")
	case <-time.After(stall):
	}
	full.ring[0].f = nil // the stalled take completes
	full.ring[0].seq.Store(spareCap)
	<-done
	for i, want := range frames[1:] {
		if f := full.take(); f != want {
			t.Fatalf("take %d returned %p, want %p", i, f, want)
		}
	}
}
