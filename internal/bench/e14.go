package bench

import (
	"fmt"

	"mpi3rma/internal/core"
	"mpi3rma/internal/serializer"
)

// E14 — sharded target-side apply scaling, measured on the Figure 2
// workload with disjoint slots (7 origins, 100 batched puts each, every
// origin owning its own Size-byte slot of rank 0's exposure).
//
// The serial engine applies every incoming operation on one logical
// target thread; with seven writers the target's apply work is the
// bottleneck the paper's Figure 2 shows saturating. E14 measures what the
// sharded apply engine (Options.ApplyShards/ApplyWorkers, DESIGN.md §10)
// buys back: the exposure is split into 7 byte-range shards — one per
// origin slot — sharing a bounded number of modelled apply lanes, so
// non-overlapping applies overlap in modelled time and the critical path
// shrinks from the sum of all origins' apply work to the busiest lane's
// share.
//
// Series:
//
//	serial engine    — ApplyShards=0 baseline. Note: the serial model
//	                   charges apply cost on unbounded per-origin DMA
//	                   lanes, so it is an optimistic bound (roughly the
//	                   workers=origins limit), not a floor for workers=1.
//	shards=7 workers=1/2/4 — the sharded engine with that many lanes.
//
// The acceptance claim is monotone scaling of the sharded series: at
// payloads >= 256 B (where apply cost dominates per-message overhead)
// aggregate model time at rank 0 is nonincreasing from workers=1 to 2
// to 4.

// E14Sizes is the payload sweep; the monotone-scaling claim covers the
// sizes >= E14ClaimSize where apply cost dominates.
var E14Sizes = []int{64, 256, 512, 1024}

// E14ClaimSize is the smallest payload the monotone-scaling note asserts.
const E14ClaimSize = 256

// E14Workers is the worker sweep of the sharded series.
var E14Workers = []int{1, 2, 4}

// E14Shards matches the origin count so each origin's slot maps onto its
// own shard (stride == Size) and no put spans shards.
const E14Shards = Fig2Origins

// E14ApplyPerKB models a memory-bandwidth-bound target: 8x the default
// wire-balanced per-KB apply cost, charged identically to every series
// (serial and sharded), so the target's apply work rather than the wire
// is the scaling bottleneck — the regime the sharded engine exists for.
// With the default constant the wire dominates above ~256 B and every
// worker count idles equally.
const E14ApplyPerKB = 8 * core.DefaultApplyPerKB

func e14Cell(size, shards, workers int) PutsCompleteOutcome {
	return RunPutsComplete(PutsCompleteConfig{
		Origins:       Fig2Origins,
		Puts:          Fig2Puts,
		Size:          size,
		Mech:          serializer.MechThread,
		NonBlocking:   true,
		BatchOps:      E13Batch,
		DisjointSlots: true,
		ApplyShards:   shards,
		ApplyWorkers:  workers,
		ApplyPerKB:    E14ApplyPerKB,
	})
}

func e14SeriesName(workers int) string {
	return fmt.Sprintf("shards=%d workers=%d", E14Shards, workers)
}

// RunE14 sweeps payload size against apply-worker count.
func RunE14() Result {
	res := Result{
		Name:  "e14",
		Title: "E14: sharded target apply scaling (Fig. 2 workload, disjoint slots, 7 origins x 100 batched puts)",
	}
	cell := func(series string, size, shards, workers int) {
		out := e14Cell(size, shards, workers)
		row := out.Row
		row.Series = series
		row.Extra["workers"] = float64(workers)
		row.Extra["msgs"] = float64(out.Msgs)
		row.Extra["batches"] = float64(out.Batches)
		bytes := float64(Fig2Origins * Fig2Puts * size)
		if row.ModelUS > 0 {
			row.Extra["model_mb_per_s"] = bytes / row.ModelUS // B/us == MB/s
		}
		if !out.Verified {
			res.Notef("FAIL: series %q size %d left inconsistent slots", series, size)
		}
		res.absorbTelemetry(out.Telemetry)
		res.Add(row)
	}

	const serialName = "serial engine (per-origin lanes)"
	res.SeriesOrder = append(res.SeriesOrder, serialName)
	for _, size := range E14Sizes {
		cell(serialName, size, 0, 0)
	}
	for _, w := range E14Workers {
		name := e14SeriesName(w)
		res.SeriesOrder = append(res.SeriesOrder, name)
		for _, size := range E14Sizes {
			cell(name, size, E14Shards, w)
		}
	}

	e14ShapeNotes(&res)
	res.Notef("note: the serial series models apply cost on unbounded per-origin lanes "+
		"(an optimistic ~workers=%d bound), so it may undercut workers=1; the scaling claim "+
		"is within the sharded series", Fig2Origins)
	res.noteTelemetry()
	return res
}

// e14ShapeNotes checks the acceptance claim: sharded model time is
// nonincreasing across the worker sweep at payloads >= E14ClaimSize.
func e14ShapeNotes(res *Result) {
	at := func(workers, size int) float64 {
		for _, r := range res.SeriesRows(e14SeriesName(workers)) {
			if r.Size == size {
				return r.ModelUS
			}
		}
		return 0
	}
	for _, size := range E14Sizes {
		if size < E14ClaimSize {
			continue
		}
		prev := at(E14Workers[0], size)
		ok := prev > 0
		times := fmt.Sprintf("%.1fus", prev)
		for _, w := range E14Workers[1:] {
			cur := at(w, size)
			// Allow sub-0.01% slack for equal-cost ties.
			ok = ok && cur > 0 && cur <= prev*1.0001
			times += fmt.Sprintf(" -> %.1fus", cur)
			prev = cur
		}
		res.Check(ok, "aggregate model time nonincreasing workers %v at %dB (%s)",
			E14Workers, size, times)
	}
}
