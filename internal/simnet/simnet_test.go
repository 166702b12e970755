package simnet

import (
	"reflect"
	"testing"

	"mpi3rma/internal/vtime"
)

func TestOrderedDeliveryPreservesPairOrder(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	src, dst := n.Endpoint(0), n.Endpoint(1)
	const msgs = 200
	for i := 0; i < msgs; i++ {
		m := &Message{Dst: 1, Kind: 99}
		m.Hdr[0] = uint64(i)
		if _, err := src.Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		m, ok := dst.Recv()
		if !ok {
			t.Fatal("channel closed early")
		}
		if int(m.Hdr[0]) != i {
			t.Fatalf("message %d arrived out of order (got %d)", i, m.Hdr[0])
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", m.Seq, i+1)
		}
	}
}

func TestUnorderedDeliveryScrambles(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: false, Seed: 1})
	defer n.Close()
	src, dst := n.Endpoint(0), n.Endpoint(1)
	const msgs = 200
	for i := 0; i < msgs; i++ {
		m := &Message{Dst: 1}
		m.Hdr[0] = uint64(i)
		if _, err := src.Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	src.Flush() // release what the link still holds
	inOrder := true
	seen := make(map[uint64]bool)
	for i := 0; i < msgs; i++ {
		m, ok := dst.Recv()
		if !ok {
			t.Fatal("channel closed early")
		}
		if int(m.Hdr[0]) != i {
			inOrder = false
		}
		if seen[m.Hdr[0]] {
			t.Fatalf("duplicate delivery of %d", m.Hdr[0])
		}
		seen[m.Hdr[0]] = true
	}
	if inOrder {
		t.Fatal("unordered network delivered 200 messages in exact order")
	}
	if len(seen) != msgs {
		t.Fatalf("delivered %d distinct messages, want %d (reliability)", len(seen), msgs)
	}
}

func TestUnorderedReliableUnderLoad(t *testing.T) {
	n := New(Config{Ranks: 3, Ordered: false, Seed: 2})
	defer n.Close()
	const per = 500
	done := make(chan int, 2)
	for s := 0; s < 2; s++ {
		go func(s int) {
			ep := n.Endpoint(s)
			for i := 0; i < per; i++ {
				m := &Message{Dst: 2}
				if _, err := ep.Send(0, m); err != nil {
					t.Errorf("send: %v", err)
				}
			}
			ep.Flush()
			done <- s
		}(s)
	}
	got := 0
	dst := n.Endpoint(2)
	for got < 2*per {
		if _, ok := dst.Recv(); !ok {
			t.Fatal("closed early")
		}
		got++
	}
	<-done
	<-done
}

func TestVirtualTimesMonotonePerSender(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	src := n.Endpoint(0)
	var prevSent, prevArrive vtime.Time
	for i := 0; i < 50; i++ {
		m := &Message{Dst: 1, Payload: make([]byte, 64)}
		arrive, err := src.Send(0, m)
		if err != nil {
			t.Fatal(err)
		}
		if m.SentAt <= prevSent {
			t.Fatalf("SentAt not strictly increasing: %d then %d", prevSent, m.SentAt)
		}
		if arrive != m.ArriveAt || arrive <= prevArrive {
			t.Fatalf("ArriveAt inconsistent")
		}
		if m.ArriveAt-m.SentAt != vtime.Time(n.Cost().Wire(64)) {
			t.Fatalf("wire time = %d, want %v", m.ArriveAt-m.SentAt, n.Cost().Wire(64))
		}
		prevSent, prevArrive = m.SentAt, m.ArriveAt
	}
	// Drain.
	for i := 0; i < 50; i++ {
		n.Endpoint(1).Recv()
	}
}

func TestSendNICSkipsInjection(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	src := n.Endpoint(0)
	before := src.InjectClock().Now()
	m := &Message{Dst: 1}
	if _, err := src.SendNIC(1000, m); err != nil {
		t.Fatal(err)
	}
	if src.InjectClock().Now() != before {
		t.Fatal("SendNIC charged the inject clock")
	}
	if m.SentAt != 1000 {
		t.Fatalf("SentAt = %d, want 1000", m.SentAt)
	}
	n.Endpoint(1).Recv()
}

func TestSendValidation(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	if _, err := n.Endpoint(0).Send(0, &Message{Dst: 5}); err == nil {
		t.Fatal("send to invalid rank should fail")
	}
	if _, err := n.Endpoint(0).SendNIC(0, &Message{Dst: -1}); err == nil {
		t.Fatal("SendNIC to invalid rank should fail")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	n.Close()
	if _, err := n.Endpoint(0).Send(0, &Message{Dst: 1}); err == nil {
		t.Fatal("send on closed network should fail")
	}
}

func TestFaultPlanDropsMessages(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	n.SetFaults(&FaultPlan{
		Seed:  7,
		Links: map[LinkKey]LinkFaults{{Src: 0, Dst: 1}: {Drop: 1}},
	})
	src, dst := n.Endpoint(0), n.Endpoint(1)
	src.Send(0, &Message{Dst: 1, Kind: 7})
	// The reverse link has no faults: deliveries there still work.
	dst.Send(0, &Message{Dst: 0, Kind: 8})
	m, ok := n.Endpoint(0).Recv()
	if !ok || m.Kind != 8 {
		t.Fatalf("got kind %d, want the undropped 8", m.Kind)
	}
	if got := n.FaultsDropped.Value(); got != 1 {
		t.Fatalf("FaultsDropped = %d, want 1", got)
	}
	select {
	case m := <-dstIn(dst):
		t.Fatalf("dropped message delivered anyway: kind %d", m.Kind)
	default:
	}
}

// dstIn exposes an endpoint's Recv queue for non-delivery assertions.
func dstIn(ep *Endpoint) chan *Message { return ep.in }

func TestFaultPlanDeterministic(t *testing.T) {
	run := func() (dropped, dup int64) {
		n := New(Config{Ranks: 2, Ordered: true})
		defer n.Close()
		n.SetFaults(&FaultPlan{Seed: 42, Default: LinkFaults{Drop: 0.3, Dup: 0.3}})
		for i := 0; i < 200; i++ {
			n.Endpoint(0).Send(0, &Message{Dst: 1, Payload: []byte{byte(i)}})
		}
		return n.FaultsDropped.Value(), n.FaultsDuplicated.Value()
	}
	d1, u1 := run()
	d2, u2 := run()
	if d1 != d2 || u1 != u2 {
		t.Fatalf("same seed diverged: drops %d/%d dups %d/%d", d1, d2, u1, u2)
	}
	if d1 == 0 || u1 == 0 {
		t.Fatalf("30%% rates over 200 sends injected nothing: drops=%d dups=%d", d1, u1)
	}
}

func TestFaultPlanPartition(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	n.SetFaults(&FaultPlan{Partitions: []Partition{{A: 0, B: 1, From: 0, Until: 1_000_000}}})
	n.Endpoint(0).Send(0, &Message{Dst: 1, Kind: 7})
	n.Endpoint(0).Send(2_000_000, &Message{Dst: 1, Kind: 9})
	m, ok := n.Endpoint(1).Recv()
	if !ok || m.Kind != 9 {
		t.Fatalf("got kind %d, want the post-partition 9", m.Kind)
	}
	if got := n.FaultsDropped.Value(); got != 1 {
		t.Fatalf("FaultsDropped = %d, want 1", got)
	}
}

func TestFaultPlanCorruptAndDelay(t *testing.T) {
	orig := []byte{1, 2, 3, 4}
	send := func(plan *FaultPlan) (*Network, *Message) {
		n := New(Config{Ranks: 2, Ordered: true})
		t.Cleanup(n.Close)
		if plan != nil {
			n.SetFaults(plan)
		}
		n.Endpoint(0).Send(0, &Message{Dst: 1, Payload: append([]byte(nil), orig...)})
		m, ok := n.Endpoint(1).Recv()
		if !ok {
			t.Fatal("no delivery")
		}
		return n, m
	}
	_, base := send(nil)
	n, m := send(&FaultPlan{
		Seed:    3,
		Default: LinkFaults{Corrupt: 1, Delay: 1, DelayBy: 1000},
	})
	same := true
	for i := range orig {
		if m.Payload[i] != orig[i] {
			same = false
		}
	}
	if same {
		t.Fatal("payload not corrupted")
	}
	if m.ArriveAt != base.ArriveAt+1000 {
		t.Fatalf("ArriveAt = %d, want base %d + DelayBy 1000", m.ArriveAt, base.ArriveAt)
	}
	if n.FaultsCorrupted.Value() != 1 || n.FaultsDelayed.Value() != 1 {
		t.Fatalf("corrupted=%d delayed=%d, want 1/1", n.FaultsCorrupted.Value(), n.FaultsDelayed.Value())
	}
}

// TestTransmitZeroAllocsWithoutFaults pins the acceptance criterion that
// the fault/relay machinery costs the default configuration nothing: with
// no fault plan installed, the transmit hot path performs zero
// allocations (one atomic nil-check and out).
func TestTransmitZeroAllocsWithoutFaults(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	src, dst := n.Endpoint(0), n.Endpoint(1)
	m := &Message{Dst: 1}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := src.Send(0, m); err != nil {
			t.Fatal(err)
		}
		dst.Recv()
	})
	if allocs != 0 {
		t.Fatalf("transmit with no fault plan allocated %.1f/op, want 0", allocs)
	}
}

func TestCounters(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	n.Endpoint(0).Send(0, &Message{Dst: 1, Payload: make([]byte, 100)})
	n.Endpoint(0).Send(0, &Message{Dst: 1, Payload: make([]byte, 28)})
	if n.Msgs.Value() != 2 || n.Bytes.Value() != 128 {
		t.Fatalf("msgs=%d bytes=%d, want 2/128", n.Msgs.Value(), n.Bytes.Value())
	}
	n.Endpoint(1).Recv()
	n.Endpoint(1).Recv()
}

func TestCostModel(t *testing.T) {
	c := DefaultCost()
	if c.Wire(0) != c.Latency {
		t.Error("zero-byte wire time should be pure latency")
	}
	if c.Wire(1024)-c.Wire(0) != c.PerKB {
		t.Error("1KB should cost exactly PerKB over latency")
	}
	if c.Inject(0) != c.Overhead+c.Gap {
		t.Error("zero-byte inject should be o+g")
	}
	if c.Deliver(2048) != c.DeliverOverhead+2*c.PerKB {
		t.Error("2KB deliver cost wrong")
	}
	// Sub-KB costs must not truncate to zero when PerKB is large enough.
	if c.Wire(512)-c.Latency == 0 {
		t.Error("512B wire cost truncated to zero")
	}
}

func TestCloseIdempotent(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: false, Seed: 3})
	n.Endpoint(0).Send(0, &Message{Dst: 1})
	n.Close()
	n.Close() // must not panic or deadlock
}

func TestRankKillBlackholesBothDirections(t *testing.T) {
	n := New(Config{Ranks: 3, Ordered: true})
	defer n.Close()
	n.SetFaults(&FaultPlan{RankKills: []RankKill{{Rank: 1, At: 1_000_000}}})

	// Before the kill: traffic to and from rank 1 flows.
	n.Endpoint(0).Send(0, &Message{Dst: 1, Kind: 7})
	if m, ok := n.Endpoint(1).Recv(); !ok || m.Kind != 7 {
		t.Fatalf("pre-kill delivery failed")
	}
	// After the kill: sends from the dead rank vanish, sends to it vanish,
	// and the senders still observe normal (pre-fault) arrival times.
	if at, err := n.Endpoint(1).Send(2_000_000, &Message{Dst: 0, Kind: 8}); err != nil || at == 0 {
		t.Fatalf("dead rank's send must not error synchronously: at=%d err=%v", at, err)
	}
	if at, err := n.Endpoint(0).Send(2_000_000, &Message{Dst: 1, Kind: 9}); err != nil || at == 0 {
		t.Fatalf("send to dead rank must not error synchronously: at=%d err=%v", at, err)
	}
	// Traffic between survivors is unaffected.
	n.Endpoint(0).Send(2_000_000, &Message{Dst: 2, Kind: 10})
	if m, ok := n.Endpoint(2).Recv(); !ok || m.Kind != 10 {
		t.Fatalf("survivor-to-survivor delivery broken")
	}
	if got := n.FaultsBlackholed.Value(); got != 2 {
		t.Fatalf("FaultsBlackholed = %d, want 2", got)
	}
	select {
	case m := <-dstIn(n.Endpoint(0)):
		t.Fatalf("blackholed message delivered anyway: kind %d", m.Kind)
	default:
	}
	if !n.RankDeadAt(1, 2_000_000) || n.RankDeadAt(1, 0) || n.RankDeadAt(0, 2_000_000) {
		t.Fatalf("RankDeadAt ground truth wrong")
	}
}

func TestRankKillRestartWindow(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	n.SetFaults(&FaultPlan{RankKills: []RankKill{{Rank: 1, At: 100, RestartAt: 1_000_000}}})

	// Arrival inside [At, RestartAt) is blackholed even if sent before At:
	// the frame lands on a dead NIC.
	n.Endpoint(0).Send(0, &Message{Dst: 1, Kind: 1})
	// After the restart the rank's traffic flows again.
	n.Endpoint(0).Send(2_000_000, &Message{Dst: 1, Kind: 2})
	if m, ok := n.Endpoint(1).Recv(); !ok || m.Kind != 2 {
		t.Fatalf("post-restart delivery failed (got kind %d)", m.Kind)
	}
	if got := n.FaultsBlackholed.Value(); got != 1 {
		t.Fatalf("FaultsBlackholed = %d, want 1", got)
	}
	if n.RankDeadAt(1, 2_000_000) {
		t.Fatalf("rank should be alive after RestartAt")
	}
}

// TestInlineHookBeforeQueue pins SetInline's contract. On an ordered
// network each message reaches the hook on the sending goroutine — it has
// run by the time Send returns — in send order. On an unordered network
// each message reaches the hook exactly once: a send that fills its link's
// reorder buffer releases one, and Flush releases the rest before it
// returns. Either way nothing queues for Recv.
func TestInlineHookBeforeQueue(t *testing.T) {
	const msgs = 20
	send := func(n *Network, dst, i int) {
		m := &Message{Dst: dst}
		m.Hdr[0] = uint64(i)
		if _, err := n.Endpoint(0).Send(0, m); err != nil {
			t.Fatal(err)
		}
	}

	ordered := New(Config{Ranks: 2, Ordered: true})
	defer ordered.Close()
	var got []uint64 // appended by the hook, read here unguarded
	ordered.Endpoint(1).SetInline(func(m *Message) { got = append(got, m.Hdr[0]) })
	for i := 0; i < msgs; i++ {
		send(ordered, 1, i)
		if len(got) != i+1 || got[i] != uint64(i) {
			t.Fatalf("after Send %d the hook has seen %v, want 0..%d in order", i, got, i)
		}
	}

	unordered := New(Config{Ranks: 2, Seed: 3})
	defer unordered.Close()
	seen := map[uint64]int{} // written by the hook on this goroutine
	unordered.Endpoint(1).SetInline(func(m *Message) { seen[m.Hdr[0]]++ })
	for i := 0; i < msgs; i++ {
		send(unordered, 1, i)
		if held := i + 1 - len(seen); held < 0 || held >= DefaultReorderWindow {
			t.Fatalf("after Send %d the link holds %d messages, want fewer than the window of %d", i, held, DefaultReorderWindow)
		}
	}
	if !unordered.Endpoint(0).Flush() || unordered.Endpoint(0).Flush() {
		t.Fatal("unordered: Flush released nothing, or something twice")
	}
	for i := 0; i < msgs; i++ {
		if seen[uint64(i)] != 1 {
			t.Fatalf("unordered: message %d reached the hook %d times, want once", i, seen[uint64(i)])
		}
	}

	for _, n := range []*Network{ordered, unordered} {
		if q := len(dstIn(n.Endpoint(1))); q != 0 {
			t.Errorf("ordered=%v: %d hooked messages also queued for Recv", n.Ordered(), q)
		}
	}
}

// TestTryRecvAndQueue: an endpoint with no delivery hook queues every
// message for Recv. On an ordered network the message is queued by the
// time Send returns, and Recv hands the queue back in send order.
func TestTryRecvAndQueue(t *testing.T) {
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	dst := n.Endpoint(1)
	if q := len(dstIn(dst)); q != 0 {
		t.Fatalf("fresh endpoint has %d queued messages", q)
	}
	const msgs = 3
	for i := 0; i < msgs; i++ {
		if _, err := n.Endpoint(0).Send(0, &Message{Dst: 1, Kind: uint8(i)}); err != nil {
			t.Fatal(err)
		}
		if q := len(dstIn(dst)); q != i+1 {
			t.Fatalf("after Send %d the queue holds %d messages, want %d", i, q, i+1)
		}
	}
	for i := 0; i < msgs; i++ {
		if m, ok := dst.Recv(); !ok || m.Kind != uint8(i) {
			t.Fatalf("Recv %d returned %v, want the kind-%d message", i, m, i)
		}
	}
}

// TestMessageReleases: the release count rides in the padding after Sum,
// so a Message stays 144 bytes; only the second of a message's two
// releases reports last; and a fault plan's clones — a corrupted copy and
// a duplicate — start with no release whatever the original says, so
// their one consumer's release is never a last one.
func TestMessageReleases(t *testing.T) {
	if got := reflect.TypeOf(Message{}).Size(); got != 144 {
		t.Errorf("Message is %d bytes, want 144", got)
	}
	n := New(Config{Ranks: 2, Ordered: true})
	defer n.Close()
	m := &Message{Src: 0, Dst: 1, Payload: []byte{1, 2, 3}}
	if m.Release() {
		t.Fatal("a message's first release reports last")
	}
	plan := &FaultPlan{Default: LinkFaults{Corrupt: 1, Dup: 1}}
	deliver, dup := n.injectFaults(plan, m)
	if deliver == m || dup == nil {
		t.Fatalf("plan should corrupt a copy and duplicate it: deliver %p (original %p), dup %p", deliver, m, dup)
	}
	if deliver.Release() || dup.Release() {
		t.Error("a clone's first release reports last: it inherited the original's")
	}
	if !m.Release() {
		t.Error("the original's second release does not report last")
	}
	if c := m.Copy(); c.Release() || &c.Payload[0] == &m.Payload[0] {
		t.Error("a copy of a released message shares its release count or its payload")
	}
}
