package trace

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"mpi3rma/internal/vtime"
)

// ev keeps test call sites short.
func ev(at int, kind Kind, peer int) Event {
	return Event{At: vtime.Time(at), Kind: kind, Peer: peer}
}

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Emit(ev(0, KindIssue, -1))
	if r.Snapshot() != nil || r.Dropped() != 0 {
		t.Fatal("nil ring should discard everything")
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	r := New(8)
	r.Emit(ev(10, KindIssue, 1))
	r.Emit(ev(20, KindApply, 0))
	r.Emit(Event{At: 30, Kind: KindProbe, Peer: 1, A: 5})
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("snapshot has %d events", len(evs))
	}
	if evs[0].Kind != KindIssue || evs[2].Detail() != "threshold=5" {
		t.Fatalf("events %v", evs)
	}
	if r.Dropped() != 0 {
		t.Fatal("nothing should be dropped yet")
	}
}

func TestRingWrap(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emit(ev(0, KindIssue, i))
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("wrapped ring holds %d events, want 4", len(evs))
	}
	// The four newest survive, oldest first.
	for i, e := range evs {
		if e.Peer != 6+i {
			t.Fatalf("event %d peer = %d, want %d", i, e.Peer, 6+i)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
}

func TestByVirtualTimeAndTimeline(t *testing.T) {
	r := New(8)
	r.Emit(ev(30, KindComplete, -1))
	r.Emit(ev(10, KindIssue, 1))
	r.Emit(ev(20, KindApply, -1))
	sorted := r.Snapshot()
	if sorted[0].Kind != KindIssue || sorted[2].Kind != KindComplete {
		t.Fatalf("sorted %v", sorted)
	}
	tl := r.Timeline()
	if !strings.Contains(tl, "issue") || strings.Index(tl, "issue") > strings.Index(tl, "complete") {
		t.Fatalf("timeline order wrong:\n%s", tl)
	}
	if !strings.Contains(tl, "peer=1") {
		t.Fatalf("timeline missing peer:\n%s", tl)
	}
}

func TestCountByCat(t *testing.T) {
	r := New(0)
	r.Emit(ev(0, KindAck, -1))
	r.Emit(ev(0, KindAck, -1))
	r.Emit(ev(0, KindNotify, -1))
	counts := r.CountByCat()
	if counts["ack"] != 2 || counts["notify"] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(1024)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Emit(ev(0, KindIssue, -1))
			}
		}()
	}
	wg.Wait()
	if got := len(r.Snapshot()); got != 800 {
		t.Fatalf("recorded %d of 800", got)
	}
}

func TestRecordOpAndNoPeerNormalization(t *testing.T) {
	r := New(8)
	r.Emit(Event{At: 10, Kind: KindIssue, Peer: 2, ID: 7})
	r.Emit(ev(20, KindFence, -3))
	r.Emit(Event{At: 30, Kind: KindApply, Peer: 0, ID: 7, A: 64})
	evs := r.Snapshot()
	if evs[0].ID != 7 || evs[2].ID != 7 || evs[1].ID != 0 {
		t.Fatalf("ids %v", evs)
	}
	if evs[1].Peer != NoPeer {
		t.Fatalf("negative peer should normalize to NoPeer, got %d", evs[1].Peer)
	}
	if s := evs[0].String(); !strings.Contains(s, "id=7") {
		t.Fatalf("String misses id: %q", s)
	}
	if s := evs[2].String(); !strings.Contains(s, "bytes=64 cost=0") {
		t.Fatalf("String misses the rendered arguments: %q", s)
	}
}

func TestSnapshotChronologicalAcrossWrap(t *testing.T) {
	// Record descending times so recording order disagrees with virtual
	// time, and wrap the ring so the raw storage order is rotated too.
	r := New(4)
	for i := 0; i < 6; i++ {
		r.Emit(ev(100-i, KindIssue, i))
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("got %d events", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("snapshot not chronological: %v", evs)
		}
	}
	// The four newest recordings (peers 2..5) survive the wrap.
	peers := map[int]bool{}
	for _, e := range evs {
		peers[e.Peer] = true
	}
	for p := 2; p <= 5; p++ {
		if !peers[p] {
			t.Fatalf("peer %d missing from %v", p, evs)
		}
	}
}

func TestMergeRanks(t *testing.T) {
	per := map[int][]Event{
		1: {{At: 10, Kind: KindIssue, Peer: 0, ID: 1}, {At: 40, Kind: KindComplete, Peer: 0, ID: 1}},
		0: {{At: 25, Kind: KindApply, Peer: 1, ID: 1}},
	}
	merged := MergeRanks(per)
	if len(merged) != 3 {
		t.Fatalf("merged %d events", len(merged))
	}
	want := []Kind{KindIssue, KindApply, KindComplete}
	for i, kind := range want {
		if merged[i].Kind != kind {
			t.Fatalf("merged[%d] = %v, want %s", i, merged[i], kind)
		}
	}
	if merged[0].Rank != 1 || merged[1].Rank != 0 {
		t.Fatalf("ranks wrong: %v", merged)
	}
}

// TestEventJSONRoundTrip: the one exported encoding carries the numeric
// arguments back in, renders them as detail for readers, and keeps the
// error's text.
func TestEventJSONRoundTrip(t *testing.T) {
	in := []RankEvent{
		{Rank: 1, Event: Event{At: 100, Kind: KindIssue, Peer: 0, ID: 7, A: 64, B: 300}},
		{Rank: 0, Event: Event{At: 10, Kind: KindLinkFailed, Peer: 1, Err: errors.New("retry budget exhausted")}},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cat":"issue"`, `"detail":"bytes=64 arrive=300"`, `"err":"retry budget exhausted"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("encoding %s misses %s", raw, want)
		}
	}
	var out []RankEvent
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out[0] != in[0] {
		t.Errorf("round trip changed %+v into %+v", in[0], out[0])
	}
	if out[1].Kind != KindLinkFailed || out[1].Err == nil || out[1].Err.Error() != "retry budget exhausted" {
		t.Errorf("fault event came back as %+v", out[1])
	}
	if err := json.Unmarshal([]byte(`[{"at":1,"cat":"no-such-kind"}]`), &out); err == nil {
		t.Error("an unknown kind name decoded without error")
	}
}
