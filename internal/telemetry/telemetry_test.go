package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mpi3rma/internal/stats"
	"mpi3rma/internal/trace"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Register("x", &stats.Counter{})
	r.Counter("x").Inc() // discard counter, must not panic
	r.Gauge("g").Set(3)
	if h := r.Histogram("h"); h != nil {
		t.Fatal("nil registry should hand out nil histograms")
	}
	r.Histogram("h").Observe(5) // nil histogram no-op
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil snapshot %+v", s)
	}
}

func TestRegistryAliasesLiveCounters(t *testing.T) {
	var owned stats.Counter
	r := NewRegistry()
	r.Register("ops.issued", &owned)
	owned.Add(41)
	r.Counter("ops.issued").Inc() // same cell through the registry
	if got := r.Snapshot().Counters["ops.issued"]; got != 42 {
		t.Fatalf("aliased counter = %d, want 42", got)
	}
	if owned.Value() != 42 {
		t.Fatalf("owner sees %d, want 42", owned.Value())
	}
}

func TestSnapshotMergeAndExport(t *testing.T) {
	a := NewRegistry()
	a.Counter("batch.flushes").Add(3)
	a.Histogram("latency.put").Observe(100)
	b := NewRegistry()
	b.Counter("batch.flushes").Add(4)
	b.Histogram("latency.put").Observe(1000)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["batch.flushes"] != 7 {
		t.Fatalf("merged counter %d", s.Counters["batch.flushes"])
	}
	if h := s.Histograms["latency.put"]; h.Count != 2 || h.Max != 1000 {
		t.Fatalf("merged histogram %+v", h)
	}

	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "batch.flushes") || !strings.Contains(text.String(), "latency.put") {
		t.Fatalf("text export:\n%s", text.String())
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON export does not parse: %v", err)
	}
	if back.Counters["batch.flushes"] != 7 {
		t.Fatalf("round-tripped counter %d", back.Counters["batch.flushes"])
	}
}

func TestSpansAcrossRanks(t *testing.T) {
	// Rank 1 issues op 9 to rank 0; rank 0 applies it; rank 1 sees the ack.
	// Rank 0 independently issues its own op 9 to rank 2 — same id, other
	// origin — which must land in a distinct span.
	per := map[int][]trace.Event{
		1: {
			{At: 10, Kind: trace.KindIssue, Peer: 0, ID: 9},
			{At: 50, Kind: trace.KindAck, Peer: 0, ID: 9},
			{At: 55, Kind: trace.KindComplete, Peer: 0, ID: 9},
		},
		0: {
			{At: 30, Kind: trace.KindApply, Peer: 1, ID: 9},
			{At: 12, Kind: trace.KindIssue, Peer: 2, ID: 9},
		},
		2: {
			{At: 40, Kind: trace.KindApply, Peer: 0, ID: 9},
		},
	}
	events := trace.MergeRanks(per)
	if len(events) != 6 {
		t.Fatalf("timeline has %d events", len(events))
	}
	spans := Spans(events)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	var mine *Span
	for i := range spans {
		if spans[i].Origin == 1 {
			mine = &spans[i]
		}
	}
	if mine == nil {
		t.Fatalf("no span for origin 1: %+v", spans)
	}
	if mine.Begin != 10 || mine.End != 55 {
		t.Fatalf("span bounds [%d,%d]", mine.Begin, mine.End)
	}
	want := []string{"issue", "apply", "ack", "complete"}
	if len(mine.Path) != len(want) {
		t.Fatalf("path %v, want %v", mine.Path, want)
	}
	for i, cat := range want {
		if mine.Path[i] != cat {
			t.Fatalf("path %v, want %v", mine.Path, want)
		}
	}
	if mine.Ranks[1] != 0 {
		t.Fatalf("apply should be recorded by rank 0: %v", mine.Ranks)
	}

	// The timeline survives its JSON encoding: the spans rebuilt from the
	// decoded events are the spans of the original.
	raw, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var back []trace.RankEvent
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(Spans(back), spans) {
		t.Fatalf("round-tripped timeline rebuilds %+v, want %+v", Spans(back), spans)
	}
}

// TestRegisterCollisionRejected pins the registration contract: a dotted
// name binds to exactly one live cell. Re-registering the same cell is
// idempotent; a different cell under a taken name is rejected with
// ErrDuplicateName (first binding wins) — two subsystems can never
// silently alias each other's metrics.
func TestRegisterCollisionRejected(t *testing.T) {
	r := NewRegistry()
	var a, b stats.Counter
	if err := r.Register("nic.msgs", &a); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if err := r.Register("nic.msgs", &a); err != nil {
		t.Fatalf("idempotent re-registration: %v", err)
	}
	err := r.Register("nic.msgs", &b)
	if !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("colliding registration returned %v, want ErrDuplicateName", err)
	}
	if !strings.Contains(err.Error(), "nic.msgs") {
		t.Fatalf("collision error %q does not name the metric", err)
	}
	a.Add(7)
	if got := r.Snapshot().Counters["nic.msgs"]; got != 7 {
		t.Fatalf("first binding displaced: snapshot reads %d, want 7", got)
	}

	h1, h2 := &stats.Histogram{}, &stats.Histogram{}
	if err := r.RegisterHistogram("latency.put", h1); err != nil {
		t.Fatalf("histogram registration: %v", err)
	}
	if err := r.RegisterHistogram("latency.put", h2); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("histogram collision returned %v, want ErrDuplicateName", err)
	}

	var nilReg *Registry
	if err := nilReg.Register("x", &a); err != nil {
		t.Fatalf("nil registry Register returned %v, want nil", err)
	}
}
