package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// syntheticSpan is a hand-built one-put timeline: issue at the origin
// (B = modelled arrival), apply at the target (B = apply cost), ack back,
// complete. The numbers are chosen so every stage the attribution walk
// can produce is distinct and checkable.
func syntheticSpan() []trace.RankEvent {
	return []trace.RankEvent{
		{Rank: 1, Event: trace.Event{At: 100, Kind: trace.KindIssue, Peer: 0, ID: 7, A: 64, B: 300}},
		{Rank: 0, Event: trace.Event{At: 450, Kind: trace.KindApply, Peer: 1, ID: 7, A: 64, B: 50}},
		{Rank: 1, Event: trace.Event{At: 520, Kind: trace.KindAck, Peer: 0, ID: 7}},
		{Rank: 1, Event: trace.Event{At: 600, Kind: trace.KindComplete, Peer: 0, ID: 7}},
	}
}

// legacyEvent is the string-detail record the engine emitted before events
// were typed: a free-form Detail the analyzer searched for "arrive=" and
// "cost=". It exists only so the old timelines stay the reference.
type legacyEvent struct {
	At, Rank int
	Cat      string
	Peer     int
	ID       uint64
	Detail   string
}

// legacyDetailInt is the old analyzer's parser, kept verbatim as part of
// the reference: it extracts "key=<int>" from a detail string.
func legacyDetailInt(detail, key string) (int64, bool) {
	i := strings.Index(detail, key+"=")
	if i < 0 {
		return 0, false
	}
	rest := detail[i+len(key)+1:]
	end := 0
	for end < len(rest) && (rest[end] >= '0' && rest[end] <= '9' || end == 0 && rest[end] == '-') {
		end++
	}
	v, err := strconv.ParseInt(rest[:end], 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// fromLegacy converts an old timeline: the category name becomes the kind,
// and arrive= / cost= — the only two annotations the analyzer ever read —
// become B. (Batch envelopes carried arrive= too; the E13 reconciliation
// test in internal/bench covers those on real runs.)
func fromLegacy(t *testing.T, old []legacyEvent) []trace.RankEvent {
	out := make([]trace.RankEvent, len(old))
	for i, e := range old {
		kind, ok := trace.KindByName(e.Cat)
		if !ok {
			t.Fatalf("legacy category %q has no kind", e.Cat)
		}
		ev := trace.Event{At: vtime.Time(e.At), Kind: kind, Peer: e.Peer, ID: e.ID}
		if v, ok := legacyDetailInt(e.Detail, "arrive"); ok {
			ev.B = v
		}
		if v, ok := legacyDetailInt(e.Detail, "cost"); ok {
			ev.B = v
		}
		out[i] = trace.RankEvent{Rank: e.Rank, Event: ev}
	}
	return out
}

// timelines returns the one-put span twice: typed, and as the string-detail
// timeline the engine recorded before events were typed, through the
// converter — the reference every attribution test runs against. extra
// events (typed) are appended to both.
func timelines(t *testing.T, extra ...trace.RankEvent) map[string][]trace.RankEvent {
	legacy := fromLegacy(t, []legacyEvent{
		{At: 100, Rank: 1, Cat: "issue", Peer: 0, ID: 7, Detail: "put byte disp=0 bytes=64 attrs=remote-complete arrive=300"},
		{At: 450, Rank: 0, Cat: "apply", Peer: 1, ID: 7, Detail: "kind=1 bytes=64 cost=50"},
		{At: 520, Rank: 1, Cat: "ack", Peer: 0, ID: 7, Detail: "count=1"},
		{At: 600, Rank: 1, Cat: "complete", Peer: 0, ID: 7, Detail: "probe sent=1 will=1"},
	})
	return map[string][]trace.RankEvent{
		"typed":  append(syntheticSpan(), extra...),
		"legacy": append(legacy, extra...),
	}
}

// TestCritPathSyntheticAttribution pins the stage decomposition of a
// hand-built span: wire = arrive-send, apply = cost, shard-queue = the
// arrival->apply remainder, ack and wakeup from the trailing gaps — and
// the stage sum reconciles exactly with end-to-end elapsed time. The
// legacy timeline must decompose into the identical SpanBreakdown.
func TestCritPathSyntheticAttribution(t *testing.T) {
	var breakdowns [][]SpanBreakdown
	for name, events := range timelines(t) {
		rep := AnalyzeCriticalPath(events)
		breakdowns = append(breakdowns, rep.Breakdowns())
		if rep.Spans != 1 || rep.Reconciled != 1 || rep.Mismatched != 0 {
			t.Fatalf("%s: spans=%d reconciled=%d mismatched=%d, want 1/1/0",
				name, rep.Spans, rep.Reconciled, rep.Mismatched)
		}
		want := map[string]int64{
			StageWire:             200, // 300-100 modelled flight
			StageShardQueue:       100, // 300..450 minus the 50ns apply
			StageApply:            50,
			StageAckNotify:        70, // 450..520
			StageCompletionWakeup: 80, // 520..600
		}
		var sum int64
		for stage, d := range want {
			s := rep.Stage(stage)
			if s == nil || s.Total != d {
				got := int64(-1)
				if s != nil {
					got = s.Total
				}
				t.Errorf("%s: stage %s total = %d, want %d", name, stage, got, d)
			}
			sum += d
		}
		if rep.TotalVTime != sum || rep.StageTotal() != rep.TotalVTime {
			t.Errorf("%s: stage sum %d / total vtime %d, want both %d",
				name, rep.StageTotal(), rep.TotalVTime, sum)
		}
		if rep.EndToEnd.Total != 500 {
			t.Errorf("%s: end-to-end total = %d, want 500", name, rep.EndToEnd.Total)
		}
	}
	if !reflect.DeepEqual(breakdowns[0], breakdowns[1]) {
		t.Fatalf("typed and legacy timelines decompose differently:\n%+v\n%+v", breakdowns[0], breakdowns[1])
	}
}

// TestCritPathRetransmitStallAttribution injects a link-level
// retransmit record inside the send->apply window and checks the stall
// is carved out of the shard-queue remainder — and that the retransmit
// event itself never becomes a span.
func TestCritPathRetransmitStallAttribution(t *testing.T) {
	// Retransmit on the 1->0 link at t=380, inside (100, 450]: actual
	// delivery was delayed ~280 past the original send.
	retransmit := trace.RankEvent{Rank: 1, Event: trace.Event{At: 380, Kind: trace.KindRetransmit, Peer: 0, ID: 99}}
	for name, events := range timelines(t, retransmit) {
		rep := AnalyzeCriticalPath(events)
		if rep.Spans != 1 {
			t.Fatalf("%s: spans = %d, want 1 (retransmit records must not form spans)", name, rep.Spans)
		}
		if rep.Mismatched != 0 {
			t.Fatalf("%s: mismatched = %d, want 0", name, rep.Mismatched)
		}
		// After the 200ns wire share, 150ns remain in the send->apply gap;
		// the stall estimate min(380-100, 150) consumes all of it.
		stall := rep.Stage(StageRetransmitStall)
		if stall == nil || stall.Total != 150 {
			got := int64(-1)
			if stall != nil {
				got = stall.Total
			}
			t.Fatalf("%s: retransmit-stall total = %d, want 150", name, got)
		}
		if rep.StageTotal() != rep.TotalVTime {
			t.Fatalf("%s: stage total %d != end-to-end vtime %d", name, rep.StageTotal(), rep.TotalVTime)
		}
	}
	// A retransmit on an unrelated link must not create a stall.
	clean := append(syntheticSpan(), trace.RankEvent{Rank: 2, Event: trace.Event{At: 380, Kind: trace.KindRetransmit, Peer: 3}})
	if s := AnalyzeCriticalPath(clean).Stage(StageRetransmitStall); s != nil && s.Total != 0 {
		t.Fatalf("unrelated-link retransmit produced stall %d, want 0", s.Total)
	}
}

// TestCritPathEmptyAndUncorrelated: no events, nil input, and ID==0
// events (fastpath completes, fences) all yield an empty, well-formed
// report rather than a crash or phantom spans.
func TestCritPathEmptyAndUncorrelated(t *testing.T) {
	for _, events := range [][]trace.RankEvent{
		nil,
		{},
		{{Rank: 0, Event: trace.Event{At: 5, Kind: trace.KindFence}}, {Rank: 1, Event: trace.Event{At: 9, Kind: trace.KindComplete}}},
	} {
		rep := AnalyzeCriticalPath(events)
		if rep.Spans != 0 || rep.TotalVTime != 0 || len(rep.Slowest) != 0 {
			t.Fatalf("empty input produced spans=%d vtime=%d slowest=%d",
				rep.Spans, rep.TotalVTime, len(rep.Slowest))
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON on empty report: %v", err)
		}
		if err := rep.WriteText(&buf); err != nil {
			t.Fatalf("WriteText on empty report: %v", err)
		}
	}
}

// TestCritPathObservePublishesStageHistograms: Observe lands one
// latency.stage.<name> histogram per populated stage plus the
// end-to-end histogram in the registry.
func TestCritPathObservePublishesStageHistograms(t *testing.T) {
	rep := AnalyzeCriticalPath(syntheticSpan())
	reg := NewRegistry()
	rep.Observe(reg)
	snap := reg.Snapshot()
	for _, name := range []string{"latency.stage.wire", "latency.stage.apply", "latency.stage.end-to-end"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("registry missing populated histogram %q", name)
		}
	}
}

// TestCritPathJSONRoundTrips: the sidecar JSON parses back and carries
// the reconciliation fields tooling keys on.
func TestCritPathJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := AnalyzeCriticalPath(syntheticSpan()).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var out struct {
		Spans      int         `json:"spans"`
		Reconciled int         `json:"reconciled"`
		Mismatched int         `json:"mismatched"`
		Stages     []StageStat `json:"stages"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("sidecar does not parse: %v", err)
	}
	if out.Spans != 1 || out.Reconciled != 1 || out.Mismatched != 0 || len(out.Stages) == 0 {
		t.Fatalf("round-trip lost fields: %+v", out)
	}
}
