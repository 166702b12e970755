package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mpi3rma/internal/stats"
	"mpi3rma/internal/trace"
)

// Critical-path analysis decomposes each operation span (PR 2's
// cross-rank timelines) into named stages so "E13 got slower" becomes
// "E13 spends 40% of its time in shard-queue". The decomposition is
// gap-based: every pair of consecutive events inside a span defines a
// gap, and every gap is attributed to exactly one stage (or split into
// wire / retransmit-stall / shard-queue / apply using the modelled arrival
// the issue/batch event carries in B and the apply cost the apply event
// carries in B). Because gaps
// partition [Begin, End] and each gap is fully assigned, the per-span
// stage sums reconcile *exactly* with the end-to-end modelled latency —
// the report tracks any violation as a mismatch so the invariant is
// self-validating rather than assumed.
//
// Stage taxonomy (see DESIGN.md §12):
//
//	issue-queue       enqueue → pack: time an op sat in the batch ring
//	pack              pack → batch envelope send
//	wire              modelled flight time (send → scheduled arrival)
//	retransmit-stall  extra delivery delay attributable to relay
//	                  retransmissions on the origin→target link
//	shard-queue       target-side queueing: NIC ingress, reorder hold,
//	                  shard/serializer backlog before the apply ran
//	apply             the modelled apply cost itself
//	ack-notify        return-path latency of acks/replies/notifies
//	completion-wakeup completion-side wakeup (last confirm → complete)
//	other             gaps with no recognised transition
const (
	StageIssueQueue       = "issue-queue"
	StagePack             = "pack"
	StageWire             = "wire"
	StageRetransmitStall  = "retransmit-stall"
	StageShardQueue       = "shard-queue"
	StageApply            = "apply"
	StageAckNotify        = "ack-notify"
	StageCompletionWakeup = "completion-wakeup"
	StageOther            = "other"
)

// StageOrder is the canonical reporting order: the lifecycle of one
// operation from issue to completion.
var StageOrder = []string{
	StageIssueQueue,
	StagePack,
	StageWire,
	StageRetransmitStall,
	StageShardQueue,
	StageApply,
	StageAckNotify,
	StageCompletionWakeup,
	StageOther,
}

// StageStat is the aggregated view of one stage across all spans.
// Quantiles come from the shared fixed-bucket histogram (approximate);
// Total is an exact int64 sum and is what reconciliation checks use.
type StageStat struct {
	Stage string `json:"stage"`
	// Spans counts the spans in which the stage appeared.
	Spans int64 `json:"spans"`
	Total int64 `json:"total_ns"`
	P50   int64 `json:"p50_ns"`
	P99   int64 `json:"p99_ns"`
	Max   int64 `json:"max_ns"`
}

// SpanBreakdown is one span's stage decomposition. Mismatch is
// (End-Begin) - Σ stages and is zero for every reconciled span.
type SpanBreakdown struct {
	Origin   int              `json:"origin"`
	ID       uint64           `json:"id"`
	Begin    int64            `json:"begin"`
	End      int64            `json:"end"`
	Elapsed  int64            `json:"elapsed_ns"`
	Stages   map[string]int64 `json:"stages"`
	Mismatch int64            `json:"mismatch_ns,omitempty"`
}

// CriticalPathReport aggregates the per-span decompositions.
type CriticalPathReport struct {
	// Spans counts multi-event spans analyzed (single-event spans carry
	// no latency and are skipped).
	Spans      int `json:"spans"`
	Reconciled int `json:"reconciled"`
	Mismatched int `json:"mismatched"`
	// TotalVTime is the exact Σ of span end-to-end times; when
	// Mismatched is zero it equals the Σ of all stage Totals.
	TotalVTime int64       `json:"total_vtime_ns"`
	EndToEnd   StageStat   `json:"end_to_end"`
	Stages     []StageStat `json:"stages"`
	// Slowest lists the worst spans by end-to-end time for triage.
	Slowest []SpanBreakdown `json:"slowest,omitempty"`

	all []SpanBreakdown
}

// stageOfGap names the stage charged with the gap that ends at an event of
// kind k. An apply's gap is split further (wire, retransmit-stall,
// shard-queue, apply); StageApply stands for the whole split here. Issue
// and enqueue open a span, so no gap ends at them in a well-formed one.
func stageOfGap(k trace.Kind) string {
	switch k {
	case trace.KindPack:
		return StageIssueQueue
	case trace.KindBatch:
		return StagePack
	case trace.KindApply:
		return StageApply
	case trace.KindAck, trace.KindReply, trace.KindNotify, trace.KindProbeAck:
		return StageAckNotify
	case trace.KindComplete, trace.KindFence:
		return StageCompletionWakeup
	case trace.KindProbe:
		return StageWire
	}
	return StageOther
}

// AnalyzeCriticalPath decomposes every correlated span in a merged
// chronological timeline (trace.MergeRanks output) into stages. events with
// ID == 0 (fastpath completes, fences) and link-level retransmit
// records are excluded from span identity; retransmits instead feed the
// retransmit-stall attribution.
func AnalyzeCriticalPath(events []trace.RankEvent) *CriticalPathReport {
	// Retransmissions are link-level records (sender, Peer = destination),
	// side-indexed out of the timeline.
	var retrans []trace.RankEvent
	for _, e := range events {
		if e.Kind == trace.KindRetransmit {
			retrans = append(retrans, e)
		}
	}

	rep := &CriticalPathReport{}
	hists := make(map[string]*stats.Histogram, len(StageOrder))
	for _, s := range StageOrder {
		hists[s] = &stats.Histogram{}
	}
	e2e := &stats.Histogram{}
	totals := make(map[string]int64, len(StageOrder))
	counts := make(map[string]int64, len(StageOrder))

	lastRetrans := func(src, dst int, after, until int64) int64 {
		var last int64
		for _, r := range retrans {
			if at := int64(r.At); r.Rank == src && r.Peer == dst && at > after && at <= until && at > last {
				last = at
			}
		}
		return last
	}

	for _, sp := range groupSpans(events) {
		if len(sp.events) < 2 {
			continue
		}
		bd := SpanBreakdown{
			Origin: sp.origin,
			ID:     sp.id,
			Begin:  int64(sp.events[0].At),
			End:    int64(sp.events[len(sp.events)-1].At),
			Stages: make(map[string]int64),
		}
		bd.Elapsed = bd.End - bd.Begin
		add := func(stage string, d int64) { bd.Stages[stage] += d }
		for i := 1; i < len(sp.events); i++ {
			prev, next := sp.events[i-1], sp.events[i]
			gap := int64(next.At - prev.At)
			if gap < 0 {
				// MergeRanks output is chronological; a negative gap means
				// the input was not. Surface it as a mismatch.
				continue
			}
			stage := stageOfGap(next.Kind)
			if next.Kind != trace.KindApply {
				add(stage, gap)
				continue
			}
			rem := gap
			if prev.Kind == trace.KindIssue || prev.Kind == trace.KindBatch {
				sent := int64(prev.At)
				wire := min(max(prev.B-sent, 0), rem)
				add(StageWire, wire)
				rem -= wire
				// A retransmission on the origin→target link inside this
				// window delayed actual delivery past the modelled arrival
				// by (retransmit time - send time).
				if last := lastRetrans(sp.origin, next.Rank, sent, int64(next.At)); last > 0 {
					stall := min(max(last-sent, 0), rem)
					add(StageRetransmitStall, stall)
					rem -= stall
				}
			}
			ap := min(max(next.B, 0), rem)
			add(StageShardQueue, rem-ap)
			add(stage, ap)
		}
		var sum int64
		for stage, d := range bd.Stages {
			sum += d
			totals[stage] += d
			counts[stage]++
			hists[stage].Observe(d)
		}
		bd.Mismatch = bd.Elapsed - sum
		rep.Spans++
		rep.TotalVTime += bd.Elapsed
		e2e.Observe(bd.Elapsed)
		if bd.Mismatch == 0 {
			rep.Reconciled++
		} else {
			rep.Mismatched++
		}
		rep.all = append(rep.all, bd)
	}

	for _, s := range StageOrder {
		if counts[s] == 0 {
			continue
		}
		rep.Stages = append(rep.Stages, StageStat{
			Stage: s,
			Spans: counts[s],
			Total: totals[s],
			P50:   hists[s].Quantile(0.50),
			P99:   hists[s].Quantile(0.99),
			Max:   hists[s].Max(),
		})
	}
	rep.EndToEnd = StageStat{
		Stage: "end-to-end",
		Spans: int64(rep.Spans),
		Total: rep.TotalVTime,
		P50:   e2e.Quantile(0.50),
		P99:   e2e.Quantile(0.99),
		Max:   e2e.Max(),
	}

	slow := append([]SpanBreakdown(nil), rep.all...)
	sort.SliceStable(slow, func(i, j int) bool { return slow[i].Elapsed > slow[j].Elapsed })
	if len(slow) > 5 {
		slow = slow[:5]
	}
	rep.Slowest = slow
	return rep
}

// Stage returns the aggregated stat for one stage name, or nil if the
// stage never appeared.
func (r *CriticalPathReport) Stage(name string) *StageStat {
	for i := range r.Stages {
		if r.Stages[i].Stage == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// StageTotal returns the exact Σ of all stage totals; equal to
// TotalVTime whenever every span reconciled.
func (r *CriticalPathReport) StageTotal() int64 {
	var sum int64
	for _, s := range r.Stages {
		sum += s.Total
	}
	return sum
}

// TopStages returns up to n stages ordered by total time descending.
func (r *CriticalPathReport) TopStages(n int) []StageStat {
	out := append([]StageStat(nil), r.Stages...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Breakdowns returns every per-span decomposition (analysis order).
func (r *CriticalPathReport) Breakdowns() []SpanBreakdown {
	return r.all
}

// Observe publishes the per-span stage durations into a registry as
// latency.stage.<name> histograms (plus latency.stage.end-to-end), the
// metric form of the same decomposition.
func (r *CriticalPathReport) Observe(reg *Registry) {
	if reg == nil {
		return
	}
	for _, bd := range r.all {
		for stage, d := range bd.Stages {
			reg.Histogram("latency.stage." + stage).Observe(d)
		}
		reg.Histogram("latency.stage.end-to-end").Observe(bd.Elapsed)
	}
}

// WriteText renders the report as an aligned table for terminals.
func (r *CriticalPathReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "critical path: %d spans, %d reconciled, %d mismatched, end-to-end %dns\n",
		r.Spans, r.Reconciled, r.Mismatched, r.TotalVTime); err != nil {
		return err
	}
	if r.Spans == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "  %-18s %8s %14s %10s %10s %10s %7s\n",
		"stage", "spans", "total_ns", "p50_ns", "p99_ns", "max_ns", "share"); err != nil {
		return err
	}
	for _, s := range r.Stages {
		share := 0.0
		if r.TotalVTime > 0 {
			share = 100 * float64(s.Total) / float64(r.TotalVTime)
		}
		if _, err := fmt.Fprintf(w, "  %-18s %8d %14d %10d %10d %10d %6.1f%%\n",
			s.Stage, s.Spans, s.Total, s.P50, s.P99, s.Max, share); err != nil {
			return err
		}
	}
	s := r.EndToEnd
	_, err := fmt.Fprintf(w, "  %-18s %8d %14d %10d %10d %10d %6.1f%%\n",
		s.Stage, s.Spans, s.Total, s.P50, s.P99, s.Max, 100.0)
	return err
}

// WriteJSON emits the report as indented JSON (the -critpath sidecar).
func (r *CriticalPathReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
