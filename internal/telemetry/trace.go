package telemetry

import (
	"sort"

	"mpi3rma/internal/trace"
)

// Span is the reconstructed lifetime of one operation (or batch
// envelope): every event across all ranks that carried its id, keyed by
// the origin rank that allocated the id.
type Span struct {
	Origin int    `json:"origin"`
	ID     uint64 `json:"id"`
	Begin  int64  `json:"begin"`
	End    int64  `json:"end"`
	// Path lists the event categories in chronological order — e.g.
	// ["issue", "apply", "ack"] for a remote-complete put, or
	// ["enqueue", "pack", "batch", "apply", "notify"] for a batched one.
	Path []string `json:"path"`
	// Ranks lists the recording rank of each Path entry.
	Ranks []int `json:"ranks"`
}

// opSpan is one operation's events, in timeline order, under the identity
// (origin rank, id) — what Spans summarizes and the critical-path analyzer
// decomposes.
type opSpan struct {
	origin int
	id     uint64
	events []trace.RankEvent
}

// groupSpans collects the correlated events (id != 0) of a chronological
// timeline (trace.MergeRanks output) into per-operation spans, in order of
// first appearance. Link-level retransmit records carry a relay sequence
// number, not an operation id: they must not pollute span identity and are
// left out.
func groupSpans(events []trace.RankEvent) []*opSpan {
	type key struct {
		origin int
		id     uint64
	}
	byOp := make(map[key]*opSpan)
	var out []*opSpan
	for _, e := range events {
		if e.ID == 0 || e.Kind == trace.KindRetransmit {
			continue
		}
		// The origin is the recording rank, except for kinds recorded at
		// the target, whose Peer names it.
		k := key{e.Rank, e.ID}
		if e.Kind.AtTarget() && e.Peer >= 0 {
			k.origin = e.Peer
		}
		sp := byOp[k]
		if sp == nil {
			sp = &opSpan{origin: k.origin, id: k.id}
			byOp[k] = sp
			out = append(out, sp)
		}
		sp.events = append(sp.events, e)
	}
	return out
}

// Spans summarizes every operation span of a chronological timeline,
// ordered by begin time.
func Spans(events []trace.RankEvent) []Span {
	groups := groupSpans(events)
	out := make([]Span, len(groups))
	for i, g := range groups {
		sp := Span{Origin: g.origin, ID: g.id, Begin: int64(g.events[0].At), End: int64(g.events[len(g.events)-1].At)}
		for _, e := range g.events {
			sp.Path = append(sp.Path, e.Kind.String())
			sp.Ranks = append(sp.Ranks, e.Rank)
		}
		out[i] = sp
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Begin < out[j].Begin })
	return out
}
