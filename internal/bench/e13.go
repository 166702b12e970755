package bench

import "mpi3rma/internal/serializer"

// E13 — operation batching and notified completion, measured on the
// Figure 2 workload (7 origins, 100 puts each, one Complete toward the
// single target).
//
// The paper's interface charges every put a full injection: software
// overhead o plus gap g per message in the LogGP model. E13 quantifies
// what the foMPI/UNR-style engine behind Options.BatchOps buys back:
//
//   - batching: up to b small puts ride one aggregated wire message, so
//     (o+g) is paid once per aggregate instead of once per put;
//   - notified completion: delivery counters piggybacked on target
//     reports let Complete finish locally instead of paying a probe
//     round-trip per target.
//
// Series:
//
//	unbatched blocking          — the Figure 2 baseline (single-call puts)
//	unbatched nonblock + probe  — nonblocking issue, probe-based Complete
//	unbatched nonblock + notify — per-put notifications, counter Complete
//	batched(16) + notify        — aggregation, counter Complete
//
// plus a batch-size sweep at 64 B where the Size column is the batch
// size b, not the payload.

// E13Sizes is the small-payload band where aggregation pays (the
// acceptance claim covers 8–64 B); 512 B shows the taper as payload cost
// dominates the amortized overhead.
var E13Sizes = []int{8, 16, 32, 64, 512}

// E13Batch is the aggregate size of the fixed-b series.
const E13Batch = 16

// E13BatchSweep are the batch sizes of the 64-byte sweep.
var E13BatchSweep = []int{1, 2, 4, 8, 16, 32, 64}

// e13Series is one legend entry of the payload sweep.
// Plain non-blocking puts report no delivery counter, so the "+ probe"
// series reaches Complete's probe round-trip without any switch.
type e13Series struct {
	name        string
	nonBlocking bool
	notifyPuts  bool
	batchOps    int
}

var e13SeriesSet = []e13Series{
	{name: "unbatched blocking"},
	{name: "unbatched nonblock + probe", nonBlocking: true},
	{name: "unbatched nonblock + notify", nonBlocking: true, notifyPuts: true},
	{name: "batched(16) + notify", nonBlocking: true, batchOps: E13Batch},
}

func e13Cell(s e13Series, size, batchOps int) PutsCompleteOutcome {
	return RunPutsComplete(PutsCompleteConfig{
		Origins:     Fig2Origins,
		Puts:        Fig2Puts,
		Size:        size,
		Mech:        serializer.MechThread,
		NonBlocking: s.nonBlocking,
		NotifyPuts:  s.notifyPuts,
		BatchOps:    batchOps,
	})
}

// RunE13 sweeps the batching/notified-completion grid.
func RunE13() Result {
	res := Result{
		Name:  "e13",
		Title: "E13: batched issue + notified completion (Fig. 2 workload, 7 origins x 100 puts)",
	}
	for _, s := range e13SeriesSet {
		res.SeriesOrder = append(res.SeriesOrder, s.name)
		for _, size := range E13Sizes {
			out := e13Cell(s, size, s.batchOps)
			row := out.Row
			row.Series = s.name
			row.Extra["msgs"] = float64(out.Msgs)
			row.Extra["logical_ops"] = float64(out.LogicalOps)
			row.Extra["batches"] = float64(out.Batches)
			row.Extra["fast_paths"] = float64(out.FastPaths)
			if !out.Verified {
				res.Notef("FAIL: series %q size %d left inconsistent target memory", s.name, size)
			}
			res.absorbTelemetry(out.Telemetry)
			res.Add(row)
		}
	}

	// Batch-size sweep at 64 B: the Size column is b.
	const sweepName = "batch-size sweep @64B (Size column = b)"
	res.SeriesOrder = append(res.SeriesOrder, sweepName)
	for _, b := range E13BatchSweep {
		out := e13Cell(e13Series{nonBlocking: true}, 64, b)
		row := out.Row
		row.Series = sweepName
		row.Size = b
		row.Extra["msgs"] = float64(out.Msgs)
		row.Extra["logical_ops"] = float64(out.LogicalOps)
		row.Extra["batches"] = float64(out.Batches)
		if !out.Verified {
			res.Notef("FAIL: batch sweep b=%d left inconsistent target memory", b)
		}
		res.absorbTelemetry(out.Telemetry)
		res.Add(row)
	}

	e13ShapeNotes(&res)
	res.noteTelemetry()
	return res
}

// e13ShapeNotes checks the acceptance claims on the model-time series.
func e13ShapeNotes(res *Result) {
	at := func(series string, size int) float64 {
		for _, r := range res.SeriesRows(series) {
			if r.Size == size {
				return r.ModelUS
			}
		}
		return 0
	}
	// Claim 1: batching cuts modelled time per op >= 2x against unbatched
	// issue at small payloads (both against the probe-based nonblocking
	// path, isolating aggregation, and against the blocking baseline).
	for _, size := range []int{8, 16, 32, 64} {
		un, ba := at("unbatched nonblock + probe", size), at("batched(16) + notify", size)
		res.Check(ba > 0 && un >= 2*ba,
			"batched issue >=2x cheaper than unbatched at %dB (%.1fus vs %.1fus, %.1fx)",
			size, un, ba, un/ba)
	}
	// Claim 2: notified completion beats probe-based Complete on the
	// Fig. 2 workload.
	mean := func(series string) float64 {
		rows := res.SeriesRows(series)
		if len(rows) == 0 {
			return 0
		}
		var sum float64
		for _, r := range rows {
			sum += r.ModelUS
		}
		return sum / float64(len(rows))
	}
	np, nn := mean("unbatched nonblock + probe"), mean("unbatched nonblock + notify")
	res.Check(nn < np, "notified completion beats probe-based Complete unbatched (%.1fus vs %.1fus)", nn, np)
	// The sweep should fall monotonically-ish: b=16 well under b=1.
	sweep := res.SeriesRows("batch-size sweep @64B (Size column = b)")
	var b1, b16 float64
	for _, r := range sweep {
		switch r.Size {
		case 1:
			b1 = r.ModelUS
		case 16:
			b16 = r.ModelUS
		}
	}
	res.Check(b16 > 0 && b1 >= 2*b16, "64B sweep: b=16 >=2x cheaper than b=1 (%.1fus vs %.1fus)", b1, b16)
}
