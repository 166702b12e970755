// Package trace is the one schema for what the RMA engine observes about
// itself: a fixed-size typed event record, a bounded ring to keep the most
// recent ones in, and the one encoding they are exported in. The protocol
// tracer (rma.WithTracing) and the postmortem flight recorder
// (rma.WithFlightRecorder) are two rings of the same record; which kinds
// each keeps is a column of the kind table in kind.go.
//
// Events carry an optional operation id (the origin's request id, or the
// aggregate id for batch envelopes) so one put can be followed
// issue→enqueue→flush→wire→apply→ack→complete across ranks: merge the
// per-rank rings with MergeRanks and group by (origin, id).
//
// Emitting is a mutex-guarded write of one record into preallocated
// storage: nothing is formatted or allocated until an event is printed or
// exported. A nil *Ring is a valid no-op recorder.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mpi3rma/internal/vtime"
)

// NoPeer is the Peer value of an event that involves no other rank.
const NoPeer = -1

// Event is one recorded protocol step.
type Event struct {
	// At is the virtual time of the event.
	At vtime.Time
	// Kind says what happened; it fixes the meaning of A and B.
	Kind Kind
	// Peer is the other rank involved (NoPeer if none).
	Peer int
	// ID correlates the events of one operation across layers and ranks:
	// the origin request id for single operations, the aggregate id for
	// batch envelopes. 0 means uncorrelated.
	ID uint64
	// A and B are the kind's two integer arguments (see the kind table).
	A, B int64
	// Err is the failure the event reports: nil except on a failed
	// request-done and on the fault kinds.
	Err error
}

// Detail renders A and B under the names the kind table gives them, e.g.
// "bytes=64 arrive=300". Arguments the kind does not use are omitted.
func (e Event) Detail() string {
	switch a, b := e.Kind.Args(); {
	case b != "":
		return fmt.Sprintf("%s=%d %s=%d", a, e.A, b, e.B)
	case a != "":
		return fmt.Sprintf("%s=%d", a, e.A)
	}
	return ""
}

// String renders the event for timeline dumps.
func (e Event) String() string {
	peer, id, errText := "        ", "", ""
	if e.Peer >= 0 {
		peer = fmt.Sprintf("peer=%-3d", e.Peer)
	}
	if e.ID != 0 {
		id = fmt.Sprintf(" id=%d", e.ID)
	}
	if e.Err != nil {
		errText = " err=" + e.Err.Error()
	}
	return fmt.Sprintf("%10d %-15s %s%s %s%s", e.At, e.Kind, peer, id, e.Detail(), errText)
}

// Ring is a bounded event recorder. The zero value is unusable; use New.
// A nil *Ring discards events.
type Ring struct {
	mu     sync.Mutex
	events []Event
	// total is the lifetime number of events emitted; total % len(events)
	// is the next slot, so the ring holds the newest min(total, cap).
	total uint64
}

// DefaultCapacity is the ring size used by New(0).
const DefaultCapacity = 4096

// New returns a ring holding up to capacity events (0 = DefaultCapacity).
func New(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{events: make([]Event, capacity)}
}

// Emit appends one event, evicting the oldest when the ring is full; on a
// nil ring it is a no-op. Negative peers normalize to NoPeer.
func (r *Ring) Emit(ev Event) {
	if r == nil {
		return
	}
	if ev.Peer < 0 {
		ev.Peer = NoPeer
	}
	r.mu.Lock()
	r.events[r.total%uint64(len(r.events))] = ev
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the recorded events in stable chronological order:
// sorted by virtual time, with recording order breaking ties. Events
// recorded after the ring wrapped would otherwise interleave with the
// survivors of earlier laps, so recording order alone is not a timeline.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Event
	if n := uint64(len(r.events)); r.total > n {
		next := r.total % n
		out = append(out, r.events[next:]...)
		out = append(out, r.events[:next]...)
	} else {
		out = append(out, r.events[:r.total]...)
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Dropped returns how many events were overwritten after the ring filled;
// Dropped plus the length of a Snapshot is the lifetime event count.
func (r *Ring) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := uint64(len(r.events)); r.total > n {
		return int64(r.total - n)
	}
	return 0
}

// Timeline renders the events in chronological order, one per line.
func (r *Ring) Timeline() string {
	var sb strings.Builder
	for _, e := range r.Snapshot() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CountByCat tallies events per kind name, for test assertions.
func (r *Ring) CountByCat() map[string]int {
	counts := make(map[string]int)
	for _, e := range r.Snapshot() {
		counts[e.Kind.String()]++
	}
	return counts
}

// RankEvent is an Event annotated with the rank that recorded it. It is
// the exported form: trace sidecars and postmortems both hold RankEvents
// and share its JSON encoding.
type RankEvent struct {
	Rank int
	Event
}

// eventJSON is the one wire encoding of an event. A and B travel as
// numbers so a dump can be analyzed again; detail is their rendering for
// human readers and is ignored on the way back in.
type eventJSON struct {
	At     int64  `json:"at"`
	Rank   int    `json:"rank"`
	Cat    string `json:"cat"`
	Peer   int    `json:"peer"`
	ID     uint64 `json:"id,omitempty"`
	A      int64  `json:"a,omitempty"`
	B      int64  `json:"b,omitempty"`
	Err    string `json:"err,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// MarshalJSON renders the event with its kind as a name and its error as
// text.
func (e RankEvent) MarshalJSON() ([]byte, error) {
	out := eventJSON{
		At: int64(e.At), Rank: e.Rank, Cat: e.Kind.String(), Peer: e.Peer,
		ID: e.ID, A: e.A, B: e.B, Detail: e.Detail(),
	}
	if e.Err != nil {
		out.Err = e.Err.Error()
	}
	return json.Marshal(out)
}

// UnmarshalJSON reverses MarshalJSON. The error comes back as its text
// (errors.Is against the original sentinel no longer holds); an unknown
// kind name is rejected.
func (e *RankEvent) UnmarshalJSON(data []byte) error {
	var in eventJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	kind, ok := KindByName(in.Cat)
	if !ok {
		return fmt.Errorf("trace: unknown event kind %q", in.Cat)
	}
	*e = RankEvent{Rank: in.Rank, Event: Event{
		At: vtime.Time(in.At), Kind: kind, Peer: in.Peer, ID: in.ID, A: in.A, B: in.B,
	}}
	if in.Err != "" {
		e.Err = errors.New(in.Err)
	}
	return nil
}

// MergeRanks folds per-rank event lists into one chronological timeline
// (stable: ties keep rank order, then each rank's recording order). This
// is the cross-rank view span reconstruction consumes.
func MergeRanks(perRank map[int][]Event) []RankEvent {
	ranks := make([]int, 0, len(perRank))
	total := 0
	for r, evs := range perRank {
		ranks = append(ranks, r)
		total += len(evs)
	}
	sort.Ints(ranks)
	out := make([]RankEvent, 0, total)
	for _, r := range ranks {
		for _, e := range perRank[r] {
			out = append(out, RankEvent{Rank: r, Event: e})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
