package portals

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/memsim"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// rig is a two-rank portals test fixture.
type rig struct {
	net  *simnet.Network
	nics []*NIC
	mems []*memsim.Memory
}

func newRig(t *testing.T, ranks int, hwAcks bool) *rig {
	t.Helper()
	net := simnet.New(simnet.Config{Ranks: ranks, Ordered: true})
	r := &rig{net: net}
	for i := 0; i < ranks; i++ {
		mem := memsim.New(memsim.Config{Size: 1 << 16})
		r.mems = append(r.mems, mem)
		r.nics = append(r.nics, NewNIC(net.Endpoint(i), mem, Config{HardwareAcks: hwAcks}))
	}
	t.Cleanup(func() {
		for _, n := range r.nics {
			n.Stop()
		}
		net.Close()
	})
	return r
}

// hangGuard bounds every wait in this file. It catches a hang, not a slow
// delivery: several -race test binaries sharing a small host can stall a
// healthy sender for seconds.
const hangGuard = time.Minute

// waitEvent returns the next event of type want on eq. Events of other
// types go back on the queue for a later wait: an ACK can overtake the
// SEND_END its origin posts only after Send returns.
func waitEvent(t *testing.T, eq *EQ, want EventType) Event {
	t.Helper()
	var skipped []Event
	defer func() {
		for _, ev := range skipped {
			eq.post(ev)
		}
	}()
	deadline := time.After(hangGuard)
	for {
		select {
		case ev := <-eq.Chan():
			if ev.Type == want {
				return ev
			}
			skipped = append(skipped, ev)
		case <-deadline:
			t.Fatalf("timed out waiting for %v", want)
		}
	}
}

func TestPutDeliversAndAcks(t *testing.T) {
	r := newRig(t, 2, true)
	// Target exposes a region at portal index 5.
	tgtRegion := r.mems[1].MustAlloc(256)
	tgtEQ := NewEQ(0)
	tgtMD := r.nics[1].AttachMD(tgtRegion, tgtEQ, MDPut)
	r.nics[1].Expose(5, tgtMD)

	// Origin sets up a source MD.
	srcRegion := r.mems[0].MustAlloc(64)
	r.mems[0].LocalWrite(srcRegion.Offset, bytes.Repeat([]byte{0xCD}, 64))
	srcEQ := NewEQ(0)
	srcMD := r.nics[0].AttachMD(srcRegion, srcEQ, 0)

	sent, err := srcMD.Put(0, 0, 64, 1, 5, 32, true, 777)
	if err != nil {
		t.Fatal(err)
	}
	if sent <= 0 {
		t.Fatalf("local completion time %d", sent)
	}
	se := waitEvent(t, srcEQ, EvSendEnd)
	if se.Length != 64 || se.Peer != 1 || se.UserHdr != 777 {
		t.Fatalf("send event %+v", se)
	}
	pe := waitEvent(t, tgtEQ, EvPutEnd)
	if pe.Offset != 32 || pe.Length != 64 || pe.Peer != 0 {
		t.Fatalf("put event %+v", pe)
	}
	ack := waitEvent(t, srcEQ, EvAck)
	if ack.Length != 64 || ack.UserHdr != 777 {
		t.Fatalf("ack event %+v", ack)
	}
	if ack.At <= se.At {
		t.Fatalf("ack at %d not after send end %d", ack.At, se.At)
	}
	got := r.mems[1].Snapshot(tgtRegion.Offset+32, 64)
	if !bytes.Equal(got, bytes.Repeat([]byte{0xCD}, 64)) {
		t.Fatal("payload not deposited")
	}
}

func TestSoftwareAckCharged(t *testing.T) {
	r := newRig(t, 2, false) // no hardware acks
	tgtRegion := r.mems[1].MustAlloc(64)
	tgtMD := r.nics[1].AttachMD(tgtRegion, nil, MDPut)
	r.nics[1].Expose(1, tgtMD)
	srcRegion := r.mems[0].MustAlloc(8)
	srcEQ := NewEQ(0)
	srcMD := r.nics[0].AttachMD(srcRegion, srcEQ, 0)
	if _, err := srcMD.Put(0, 0, 8, 1, 1, 0, true, 0); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, srcEQ, EvAck)
	if r.nics[1].SoftAcks.Value() != 1 {
		t.Fatalf("soft acks = %d, want 1", r.nics[1].SoftAcks.Value())
	}
}

func TestBadRequestsCounted(t *testing.T) {
	r := newRig(t, 2, true)
	srcRegion := r.mems[0].MustAlloc(8)
	srcMD := r.nics[0].AttachMD(srcRegion, nil, 0)
	// Unknown portal index.
	if _, err := srcMD.Put(0, 0, 8, 1, 99, 0, false, 0); err != nil {
		t.Fatal(err)
	}
	// Out-of-bounds target offset.
	tgtRegion := r.mems[1].MustAlloc(4)
	tgtMD := r.nics[1].AttachMD(tgtRegion, nil, MDPut)
	r.nics[1].Expose(1, tgtMD)
	if _, err := srcMD.Put(0, 0, 8, 1, 1, 0, false, 0); err != nil {
		t.Fatal(err)
	}
	// Put to an MD that does not permit puts.
	noPut := r.mems[1].MustAlloc(64)
	r.nics[1].Expose(2, r.nics[1].AttachMD(noPut, nil, 0))
	if _, err := srcMD.Put(0, 0, 8, 1, 2, 0, false, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(hangGuard)
	for r.nics[1].BadReq.Value() < 3 {
		select {
		case <-deadline:
			t.Fatalf("bad requests = %d, want 3", r.nics[1].BadReq.Value())
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestPutSourceBoundsChecked(t *testing.T) {
	r := newRig(t, 2, true)
	srcRegion := r.mems[0].MustAlloc(8)
	srcMD := r.nics[0].AttachMD(srcRegion, nil, 0)
	if _, err := srcMD.Put(0, 4, 8, 1, 0, 0, false, 0); err == nil {
		t.Fatal("put beyond the source MD should fail locally")
	}
}

func TestExposeDuplicatePanics(t *testing.T) {
	r := newRig(t, 1, true)
	md := r.nics[0].AttachMD(r.mems[0].MustAlloc(8), nil, MDPut)
	r.nics[0].Expose(1, md)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Expose should panic")
		}
	}()
	r.nics[0].Expose(1, md)
}

func TestUnexpose(t *testing.T) {
	r := newRig(t, 2, true)
	tgtRegion := r.mems[1].MustAlloc(16)
	md := r.nics[1].AttachMD(tgtRegion, nil, MDPut)
	r.nics[1].Expose(3, md)
	r.nics[1].Unexpose(3)
	srcMD := r.nics[0].AttachMD(r.mems[0].MustAlloc(8), nil, 0)
	if _, err := srcMD.Put(0, 0, 8, 1, 3, 0, false, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(hangGuard)
	for r.nics[1].BadReq.Value() < 1 {
		select {
		case <-deadline:
			t.Fatal("put through unexposed portal was not rejected")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestEQOverflowFlag(t *testing.T) {
	q := NewEQ(2)
	q.post(Event{Type: EvAck})
	q.post(Event{Type: EvAck})
	if q.Overflowed() {
		t.Fatal("premature overflow")
	}
	q.post(Event{Type: EvAck})
	if !q.Overflowed() {
		t.Fatal("overflow not recorded")
	}
	if ev, ok := q.Poll(); !ok || ev.Type != EvAck {
		t.Fatal("poll failed")
	}
}

func TestEventTypeStrings(t *testing.T) {
	for ev, want := range map[EventType]string{
		EvSendEnd: "SEND_END", EvAck: "ACK", EvPutEnd: "PUT_END",
	} {
		if ev.String() != want {
			t.Errorf("%d.String() = %q, want %q", ev, ev.String(), want)
		}
	}
}

func TestRegisterHandlerDuplicatePanics(t *testing.T) {
	r := newRig(t, 1, true)
	r.nics[0].RegisterHandler(200, func(*simnet.Message, vtime.Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate handler registration should panic")
		}
	}()
	r.nics[0].RegisterHandler(200, func(*simnet.Message, vtime.Time) {})
}

// TestDeliveryParkedBacklogsInOrder: messages of two kinds park before
// their handlers exist, then both kinds register while senders keep
// delivering more of them. Each kind's backlog has been delivered when its
// RegisterHandler returns. The handlers share unsynchronized state, which
// is safe only if they never overlap — the race detector is the assertion
// — and each kind must still arrive in order: no live arrival overtakes
// its kind's backlog.
func TestDeliveryParkedBacklogsInOrder(t *testing.T) {
	const kA, kB, perKind = 201, 202, 50
	r := newRig(t, 2, true)
	send := func(kind uint8, seq int) {
		m := &simnet.Message{Dst: 1, Kind: kind}
		m.Hdr[0] = uint64(seq)
		if _, err := r.nics[0].Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perKind; i++ {
		send(kA, i)
		send(kB, i)
	}
	deadline := time.After(hangGuard)
	for r.nics[1].Parked.Value() < 2*perKind {
		select {
		case <-deadline:
			t.Fatalf("parked %d messages, want %d", r.nics[1].Parked.Value(), 2*perKind)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	var delivered int // shared by both handlers, deliberately unguarded
	next := map[uint8]int{}
	done := make(chan struct{})
	handler := func(m *simnet.Message, _ vtime.Time) {
		if got := int(m.Hdr[0]); got != next[m.Kind] {
			t.Errorf("kind %d: message %d delivered, want %d", m.Kind, got, next[m.Kind])
		}
		next[m.Kind]++
		if delivered++; delivered == 4*perKind {
			close(done)
		}
	}
	registered := func(kind uint8) {
		r.nics[1].RegisterHandler(kind, handler)
		if next[kind] != perKind {
			t.Fatalf("kind %d: %d of its %d parked messages delivered when RegisterHandler returned", kind, next[kind], perKind)
		}
	}
	registered(kA)
	for i := perKind; i < 2*perKind; i++ {
		send(kA, i) // live traffic for kA while kB's backlog waits
	}
	registered(kB)
	for i := perKind; i < 2*perKind; i++ {
		send(kB, i)
	}
	select {
	case <-done:
	case <-time.After(hangGuard):
		t.Fatal("backlogs were not delivered")
	}
}

// sendSeq sends one message of kind to dst from nic carrying seq.
func sendSeq(t *testing.T, nic *NIC, dst int, kind uint8, seq int) {
	t.Helper()
	m := &simnet.Message{Dst: dst, Kind: kind}
	m.Hdr[0] = uint64(seq)
	if _, err := nic.Send(0, m); err != nil {
		t.Error(err)
	}
}

// TestDeliveryFIFOBehindBacklog: a handler blocks while holding rank 1's
// delivery token, so rank 0's next messages cannot run inline and join the
// backlog. Once it is released its goroutine drains them, and they and a
// message rank 0 sends the moment the token comes free arrive in send
// order.
func TestDeliveryFIFOBehindBacklog(t *testing.T) {
	const kBlock, kSeq, queued = 203, 204, 20
	r := newRig(t, 3, true)
	entered, release := make(chan struct{}), make(chan struct{})
	r.nics[1].RegisterHandler(kBlock, func(*simnet.Message, vtime.Time) {
		close(entered)
		<-release
	})
	var got []int // touched only by kSeq's handler
	done := make(chan struct{})
	r.nics[1].RegisterHandler(kSeq, func(m *simnet.Message, _ vtime.Time) {
		got = append(got, int(m.Hdr[0]))
		if len(got) == queued+1 {
			close(done)
		}
	})

	go func() {
		// Runs the blocking handler inline, then drains the backlog, so
		// the last message finds the backlog empty and runs inline too.
		sendSeq(t, r.nics[2], 1, kBlock, 0)
		sendSeq(t, r.nics[0], 1, kSeq, queued)
	}()
	select {
	case <-entered:
	case <-time.After(hangGuard):
		t.Fatal("blocking handler never ran")
	}
	for i := 0; i < queued; i++ {
		sendSeq(t, r.nics[0], 1, kSeq, i)
	}
	if n := r.nics[1].Delivered.Value(); n != 1 {
		t.Fatalf("%d deliveries while the token was held, want only the blocker's", n)
	}
	close(release)
	select {
	case <-done:
	case <-time.After(hangGuard):
		t.Fatalf("delivered %d of %d", len(got), queued+1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v, want send order", got)
		}
	}
	if in := r.nics[1].Inline.Value(); in > 2 {
		t.Fatalf("%d inline deliveries; only the blocker and, once the backlog drained, the last message could run inline", in)
	}
}

// TestDeliveryNoOverlap: four senders hammer one NIC at once. Its handler
// keeps unguarded shared state, which is safe only if its handlers never
// run concurrently — the race detector is the assertion — and each
// sender's messages must arrive in its send order.
func TestDeliveryNoOverlap(t *testing.T) {
	const kind, senders, per = 205, 4, 500
	r := newRig(t, senders+1, true)
	target := r.nics[senders]
	var total int         // deliberately unguarded
	next := map[int]int{} // per sender, deliberately unguarded
	done := make(chan struct{})
	target.RegisterHandler(kind, func(m *simnet.Message, _ vtime.Time) {
		if got := int(m.Hdr[0]); got != next[m.Src] {
			t.Errorf("sender %d: message %d delivered, want %d", m.Src, got, next[m.Src])
		}
		next[m.Src]++
		if total++; total == senders*per {
			close(done)
		}
	})
	for s := 0; s < senders; s++ {
		go func(nic *NIC) {
			for i := 0; i < per; i++ {
				sendSeq(t, nic, senders, kind, i)
			}
		}(r.nics[s])
	}
	select {
	case <-done:
	case <-time.After(hangGuard):
		t.Fatal("deliveries did not finish")
	}
}

// TestDeliveryPingPongInline: a request/reply between two idle NICs runs
// to completion on the caller's goroutine — the reply handler has run by
// the time Send returns — and nothing passes through a backlog.
func TestDeliveryPingPongInline(t *testing.T) {
	const kPing, kPong = 206, 207
	r := newRig(t, 2, true)
	r.nics[1].RegisterHandler(kPing, func(m *simnet.Message, at vtime.Time) {
		if _, err := r.nics[1].Send(at, &simnet.Message{Dst: m.Src, Kind: kPong}); err != nil {
			t.Error(err)
		}
	})
	answered := false // written by the pong handler, read below unguarded
	r.nics[0].RegisterHandler(kPong, func(*simnet.Message, vtime.Time) { answered = true })
	for i := 0; i < 10; i++ {
		answered = false
		sendSeq(t, r.nics[0], 1, kPing, i)
		if !answered {
			t.Fatalf("round %d: the reply had not run when Send returned", i)
		}
	}
	for i, n := range r.nics {
		if d, in := n.Delivered.Value(), n.Inline.Value(); d != 10 || in != 10 {
			t.Errorf("rank %d: delivered %d, inline %d; want 10 and 10 (%d went through the backlog)", i, d, in, d-in)
		}
	}
}

// TestDeliveryAfterStop: once a NIC has stopped, nothing runs — a send to
// it neither runs the handler nor counts an inline delivery.
func TestDeliveryAfterStop(t *testing.T) {
	const kind = 208
	r := newRig(t, 2, true)
	ran := make(chan struct{}, 2)
	r.nics[1].RegisterHandler(kind, func(*simnet.Message, vtime.Time) { ran <- struct{}{} })
	sendSeq(t, r.nics[0], 1, kind, 0)
	if len(ran) != 1 || r.nics[1].Inline.Value() != 1 {
		t.Fatalf("before Stop: ran %d, inline %d; want 1 and 1", len(ran), r.nics[1].Inline.Value())
	}
	r.nics[1].Stop()
	sendSeq(t, r.nics[0], 1, kind, 1)
	if len(ran) != 1 || r.nics[1].Inline.Value() != 1 {
		t.Fatalf("after Stop: ran %d, inline %d; want 1 and 1", len(ran), r.nics[1].Inline.Value())
	}
}

// TestDeliveryDeepSelfSend: a handler on rank 1 sends thousands of
// messages to rank 1 itself while it holds the delivery token. None can
// run until the handler returns, so they all wait in the backlog — no
// bounded queue may fill behind the token and wedge the handler — and
// the handler's own goroutine delivers them once it lets go.
func TestDeliveryDeepSelfSend(t *testing.T) {
	const kStart, kSelf, self = 210, 211, 3000
	r := newRig(t, 2, true)
	got := 0 // touched only by kSelf's handler
	done := make(chan struct{})
	r.nics[1].RegisterHandler(kStart, func(*simnet.Message, vtime.Time) {
		for i := 0; i < self; i++ {
			sendSeq(t, r.nics[1], 1, kSelf, i)
		}
	})
	r.nics[1].RegisterHandler(kSelf, func(m *simnet.Message, _ vtime.Time) {
		if int(m.Hdr[0]) != got {
			t.Errorf("self-send %d delivered, want %d", m.Hdr[0], got)
		}
		if got++; got == self {
			close(done)
		}
	})
	go sendSeq(t, r.nics[0], 1, kStart, 0)
	select {
	case <-done:
	case <-time.After(hangGuard):
		t.Fatalf("delivered %d of %d self-sends", r.nics[1].Delivered.Value()-1, self)
	}
}

// TestDeliveryNoStrandedMessage: two senders offer one message each to the
// same NIC, round after round, the second starting a little later each
// round so that its append sweeps across the first one's release. Once
// both Sends of a round have returned no goroutine holds the token, so
// both messages must have been delivered: one appended just as the holder
// let go is the holder's to pick up, not left for a later arrival. That
// window is a few instructions wide and needs two goroutines running at
// once, so the test raises GOMAXPROCS to at least 2; dropping release's
// look after the unlock fails it within a few ten thousand rounds.
func TestDeliveryNoStrandedMessage(t *testing.T) {
	const kind, rounds = 209, 100_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	r := newRig(t, 3, true)
	var delivered, arrived atomic.Int64
	var stop atomic.Bool
	r.nics[2].RegisterHandler(kind, func(*simnet.Message, vtime.Time) { delivered.Add(1) })
	// barrier spins until both senders have arrived n times in all, so a
	// round's two offers start within nanoseconds of each other.
	barrier := func(n int64) {
		arrived.Add(1)
		for arrived.Load() < n {
		}
	}
	// A loaded host can stall a spinning sender, so the run is capped in
	// time too; sender 0 decides, before a barrier both then pass.
	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := int64(1); round <= rounds; round++ {
				barrier(4*round - 2)
				for i := int64(s) * (round % 64); i > 0; i-- {
				}
				sendSeq(t, r.nics[s], 2, kind, 0)
				if s == 0 && round%1024 == 0 && time.Now().After(deadline) {
					stop.Store(true)
				}
				barrier(4 * round)
				if got := delivered.Load(); got != 2*round {
					t.Errorf("round %d: %d of %d messages delivered once both Sends had returned", round, got, 2*round)
					return
				}
				if stop.Load() {
					return
				}
			}
		}(s)
	}
	wg.Wait()
}
