package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpi3rma/internal/stats"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// note is the engine's emit as the recorder sees it: one event into Ring().
func note(f *FlightRecorder, at int, kind trace.Kind, peer int, id uint64, a int64, err error) {
	f.Ring().Emit(trace.Event{At: vtime.Time(at), Kind: kind, Peer: peer, ID: id, A: a, Err: err})
}

// TestFlightDisabledZeroAlloc pins the hot-path contract: with the
// recorder disabled (nil pointer — the state every engine is in unless
// WithFlightRecorder was passed) an emit into Ring() is a single pointer
// check and allocates nothing. The enabled path writes into the
// preallocated ring and must not allocate either.
func TestFlightDisabledZeroAlloc(t *testing.T) {
	var off *FlightRecorder
	err := errors.New("sticky")
	if n := testing.AllocsPerRun(1000, func() {
		note(off, 42, trace.KindDelivery, 3, 7, 1, err)
	}); n != 0 {
		t.Fatalf("disabled emit allocates %v per call, want 0", n)
	}
	on := NewFlightRecorder(FlightConfig{Rank: 1, Cap: 64})
	if n := testing.AllocsPerRun(1000, func() {
		note(on, 42, trace.KindDelivery, 3, 7, 1, err)
	}); n != 0 {
		t.Fatalf("enabled emit allocates %v per call, want 0", n)
	}
	// The rest of the nil-receiver surface must be no-ops, not panics.
	off.SetHealth(nil)
	off.SetBaseline(NewRegistry())
	off.AutoDump("x", 0)
	if off.Ring() != nil || off.Postmortem("x", 0) != nil || off.Dumps() != nil {
		t.Fatal("nil recorder returned non-empty state")
	}
}

// TestFlightRingEvictsOldest: a full ring keeps the newest Cap events in
// chronological order and reports the lifetime total.
func TestFlightRingEvictsOldest(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Rank: 0, Cap: 4})
	for i := 1; i <= 6; i++ {
		note(f, i, trace.KindDelivery, i, 0, 0, nil)
	}
	pm := f.Postmortem("test", 6)
	if pm.Recorded != 6 || len(pm.Events) != 4 {
		t.Fatalf("recorded=%d events=%d, want 6 and 4", pm.Recorded, len(pm.Events))
	}
	for i, ev := range pm.Events {
		if want := vtime.Time(i + 3); ev.At != want {
			t.Fatalf("event %d at=%d, want %d (oldest evicted, chronological)", i, ev.At, want)
		}
	}
}

// TestFlightPostmortemContents: the dump embeds the health snapshot,
// reports counter deltas since the baseline was armed, and its JSON
// round-trips with the link-failure event's error text preserved.
func TestFlightPostmortemContents(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Rank: 2, Cap: 8})
	reg := NewRegistry()
	var retries stats.Counter
	if err := reg.Register("net.retries", &retries); err != nil {
		t.Fatal(err)
	}
	retries.Add(5)
	f.SetBaseline(reg)
	f.SetHealth(func() HealthReport {
		return HealthReport{Rank: 2, VTime: 99, Sticky: []string{"link 0 failed"}}
	})
	retries.Add(3)
	note(f, 10, trace.KindLinkFailed, 0, 0, 0, errors.New("retry budget exhausted"))

	pm := f.Postmortem("link-failed", 10)
	if pm.Health == nil || pm.Health.VTime != 99 || len(pm.Health.Sticky) != 1 {
		t.Fatalf("health snapshot not embedded: %+v", pm.Health)
	}
	if pm.MetricDeltas["net.retries"] != 3 {
		t.Fatalf("metric delta = %d, want 3 (movement since baseline only)", pm.MetricDeltas["net.retries"])
	}
	if pm.Events[0].Rank != 2 || pm.Events[0].Err == nil {
		t.Fatalf("event lost its rank or error: %+v", pm.Events[0])
	}
	var buf bytes.Buffer
	if err := f.WritePostmortem(&buf, "link-failed", 10); err != nil {
		t.Fatalf("WritePostmortem: %v", err)
	}
	var back Postmortem
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("postmortem JSON does not parse: %v", err)
	}
	ev := back.Events[0]
	if ev.Kind != trace.KindLinkFailed || ev.Rank != 2 || ev.Peer != 0 || ev.Err == nil || ev.Err.Error() != "retry budget exhausted" {
		t.Fatalf("link-failed event did not round-trip: %+v", ev)
	}
}

// TestFlightAutoDumpOnce: AutoDump writes exactly one postmortem file
// per recorder (cascading faults reuse the first), named by rank and
// sanitized reason; explicit DumpFile calls are not limited.
func TestFlightAutoDumpOnce(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightConfig{Rank: 3, Dir: dir})
	note(f, 1, trace.KindRetransmit, 0, 11, 2, nil)
	f.AutoDump("link-failed", 5)
	f.AutoDump("apply-fault", 6)
	dumps := f.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("auto-dumped %d files, want 1", len(dumps))
	}
	base := filepath.Base(dumps[0])
	if !strings.HasPrefix(base, "flight-rank3-link-failed-") {
		t.Fatalf("dump name %q, want flight-rank3-link-failed-*", base)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	var pm Postmortem
	if err := json.Unmarshal(raw, &pm); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if pm.Reason != "link-failed" || pm.Rank != 3 || len(pm.Events) != 1 {
		t.Fatalf("dump contents: %+v", pm)
	}
	if p, err := f.DumpFile("manual", 7); err != nil || p == "" {
		t.Fatalf("explicit DumpFile after auto: path=%q err=%v", p, err)
	}
	if len(f.Dumps()) != 2 {
		t.Fatalf("dumps after explicit = %d, want 2", len(f.Dumps()))
	}
}
