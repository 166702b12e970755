package bench

import (
	gort "runtime"
	"sync"
	"time"

	"mpi3rma/internal/core"
	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
)

// pollYield lets other goroutines run between Progress polls.
func pollYield() { gort.Gosched() }

// lockStats extracts the coarse-lock counters from an engine.
func lockStats(e *core.Engine) (grants, contended int64) {
	return e.LockStats()
}

// softAckTotal sums software acknowledgements across all ranks.
func softAckTotal(w *runtime.World) int64 {
	var total int64
	for r := 0; r < w.Size(); r++ {
		total += w.Proc(r).NIC().SoftAcks.Value()
	}
	return total
}

// Fig2Series is one legend entry of Figure 2.
type Fig2Series struct {
	// Name is the legend label.
	Name string
	// Attrs are the per-put attributes (AttrBlocking is always added:
	// "The Blocking attribute is always set in this example to use single
	// call RMA update").
	Attrs core.Attr
	// Mech is the target's atomicity serializer.
	Mech serializer.Mechanism
}

// Fig2SeriesSet is the paper's legend, in the paper's order.
var Fig2SeriesSet = []Fig2Series{
	{Name: "no attributes", Attrs: core.AttrNone, Mech: serializer.MechThread},
	{Name: "ordering", Attrs: core.AttrOrdering, Mech: serializer.MechThread},
	{Name: "remote complete", Attrs: core.AttrRemoteComplete, Mech: serializer.MechThread},
	{Name: "atomicity + coarse lock", Attrs: core.AttrAtomic, Mech: serializer.MechCoarseLock},
	{Name: "atomicity + thread serializer", Attrs: core.AttrAtomic, Mech: serializer.MechThread},
}

// PutsCompleteConfig parameterizes one cell of the Figure 2 family of
// experiments (also reused by E3, E4, E5, E8).
type PutsCompleteConfig struct {
	// Origins is the number of concurrently putting ranks (the target is
	// one additional rank, rank 0).
	Origins int
	// Puts is the number of blocking puts per origin.
	Puts int
	// Size is the payload per put in bytes.
	Size int
	// Attrs are the per-put attributes (AttrBlocking is added).
	Attrs core.Attr
	// Mech is the atomicity mechanism configured at every rank.
	Mech serializer.Mechanism
	// Unordered selects an unordered network (E3).
	Unordered bool
	// SoftwareAcks disables hardware acknowledgement generation (E4).
	SoftwareAcks bool
	// TargetPolls models, for MechProgress, how often the target enters
	// the library: deferred atomic operations apply at the next multiple
	// of this virtual interval (required for MechProgress cells, E8).
	TargetPolls time.Duration
	// NonBlocking issues the puts without AttrBlocking (E13): completion
	// is established only by the final Complete.
	NonBlocking bool
	// NotifyPuts adds AttrNotify to every put (E13): each application is
	// reported on the delivery counter, feeding Complete's fast path.
	NotifyPuts bool
	// BatchOps enables origin-side operation batching of that many ops
	// per aggregate (E13); 0 leaves batching off.
	BatchOps int
	// DisjointSlots exposes Origins*Size bytes at rank 0 and gives each
	// origin its own Size-byte slot at displacement (rank-1)*Size (E14):
	// disjoint target ranges a sharded target can apply in parallel.
	DisjointSlots bool
	// ApplyShards/ApplyWorkers configure rank 0's sharded apply engine
	// (E14); zero keeps the serial target.
	ApplyShards, ApplyWorkers int
	// ApplyPerKB overrides the target's per-KB apply cost (0 = engine
	// default), letting E14 model a memory-bandwidth-bound target.
	ApplyPerKB time.Duration
	// WorldConfig hooks further runtime configuration (nil = none).
	WorldConfig func(*runtime.Config)
}

// PutsCompleteOutcome reports one cell's measurements and counters.
type PutsCompleteOutcome struct {
	Row Row
	// Msgs is total network traffic.
	Msgs int64
	// LockGrants and LockContended describe the coarse lock, if used.
	LockGrants, LockContended int64
	// SoftAcks counts software acknowledgements.
	SoftAcks int64
	// HeldOps counts ordered operations buffered out-of-order.
	HeldOps int64
	// LogicalOps counts operations carried by the wire messages (> Msgs
	// when aggregation is on).
	LogicalOps int64
	// Batches and FastPaths describe the batching/notified-completion
	// machinery, summed over the origins.
	Batches, FastPaths int64
	// Retries counts the reliable-delivery relay's retransmissions,
	// non-zero only when a fault plan or retry policy is installed via
	// WorldConfig.
	Retries int64
	// Telemetry is the cell's merged metrics/trace sidecar, non-nil only
	// when harness telemetry is on (SetTelemetry).
	Telemetry *TelemetrySummary
	// Verified is false if the final target memory did not contain bytes
	// from one of the origins (every put targets the same region, so the
	// last writer wins — any origin's fill value is legal).
	Verified bool
}

// RunPutsComplete executes one cell: cfg.Origins ranks each issue
// cfg.Puts blocking puts of cfg.Size bytes to the *same overlapping
// region* of rank 0 ("seven MPI processes concurrently do 100 puts to
// overlapping memory regions on process 0"), then issue one
// Complete(rank 0). The reported times span first put to Complete return,
// maximized over origins.
func RunPutsComplete(cfg PutsCompleteConfig) PutsCompleteOutcome {
	ranks := cfg.Origins + 1
	wcfg := runtime.Config{
		Ranks:        ranks,
		UnorderedNet: cfg.Unordered,
		SoftwareAcks: cfg.SoftwareAcks,
		Seed:         42,
	}
	if cfg.WorldConfig != nil {
		cfg.WorldConfig(&wcfg)
	}
	w := runtime.NewWorld(wcfg)
	defer w.Close()
	// Start every cell from a collected heap. A multi-origin cell's model
	// time depends on how its ranks interleave on the host, and the heap
	// is small enough that earlier cells' garbage would otherwise set off
	// a collection across this cell's puts, reordering them (fig2's
	// "ordering is free" note then failed about one run in eight under
	// -metrics).
	gort.GC()

	attrs := cfg.Attrs
	if !cfg.NonBlocking {
		attrs |= core.AttrBlocking
	}
	if cfg.NotifyPuts {
		attrs |= core.AttrNotify
	}
	var meas measure
	var outMu sync.Mutex
	out := PutsCompleteOutcome{Verified: true}
	col := newCollector()

	exposeSize := cfg.Size
	if cfg.DisjointSlots {
		exposeSize = cfg.Origins * cfg.Size
	}
	err := w.Run(func(p *runtime.Proc) {
		eopts := core.Options{
			Atomicity:       cfg.Mech,
			ProgressQuantum: cfg.TargetPolls,
			BatchOps:        cfg.BatchOps,
			ApplyPerKB:      cfg.ApplyPerKB,
		}
		if p.Rank() == 0 {
			eopts.ApplyShards = cfg.ApplyShards
			eopts.ApplyWorkers = cfg.ApplyWorkers
		}
		e := core.Attach(p, eopts)
		col.attach(p.Rank(), e)
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(exposeSize)
			enc := tm.Encode()
			for r := 1; r < ranks; r++ {
				p.Send(r, 0, enc)
			}
			if cfg.Mech == serializer.MechProgress {
				// Drain deferred atomic operations until every origin's
				// ops are applied; the virtual cost of infrequent polling
				// is modelled by the engine's ProgressQuantum, so this
				// real-time loop only provides liveness.
				expected := int64(cfg.Origins * cfg.Puts)
				for e.OpsApplied.Value() < expected {
					e.Progress()
					pollYield()
				}
			}
			p.Barrier()
			got := p.Mem().Snapshot(region.Offset, exposeSize)
			if cfg.DisjointSlots {
				// Validate: each origin's slot holds exactly its fill byte.
				for r := 1; r <= cfg.Origins; r++ {
					slot := got[(r-1)*cfg.Size : r*cfg.Size]
					for _, b := range slot {
						if b != byte(r) {
							out.Verified = false
							break
						}
					}
				}
			} else {
				// Validate: the region holds some origin's fill byte (every
				// put targets the same region, so the last writer wins).
				val := got[0]
				okByte := val >= 1 && int(val) <= cfg.Origins
				for _, b := range got {
					if b != val {
						okByte = false
						break
					}
				}
				if !okByte {
					out.Verified = false
				}
			}
			out.LockGrants, out.LockContended = lockStats(e)
			out.HeldOps = e.HeldOps.Value()
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := core.DecodeTargetMem(enc)
		if err != nil {
			panic(err)
		}
		src := p.Alloc(cfg.Size)
		fill := make([]byte, cfg.Size)
		for i := range fill {
			fill[i] = byte(p.Rank())
		}
		p.WriteLocal(src, 0, fill)

		tdisp := 0
		if cfg.DisjointSlots {
			tdisp = (p.Rank() - 1) * cfg.Size
		}
		startVT := p.Now()
		for i := 0; i < cfg.Puts; i++ {
			if _, err := e.Put(src, cfg.Size, datatype.Byte, tm, tdisp, cfg.Size, datatype.Byte, 0, comm, attrs); err != nil {
				panic(err)
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			panic(err)
		}
		meas.record(p.Now() - startVT)
		outMu.Lock()
		out.Batches += e.Batches.Value()
		out.FastPaths += e.FastPaths.Value()
		outMu.Unlock()
		p.Barrier()
	})
	if err != nil {
		panic(err)
	}
	out.Row = meas.row("", cfg.Size)
	out.Msgs = w.Net().Msgs.Value()
	out.LogicalOps = w.Net().LogicalOps.Value()
	out.SoftAcks = softAckTotal(w)
	out.Retries = w.Net().Retries.Value()
	out.Telemetry = col.summary()
	return out
}

// RunFig2 sweeps the full Figure 2 grid.
func RunFig2() Result {
	res := Result{
		Name:  "fig2",
		Title: "Figure 2: cost of each RMA attribute (100 puts + 1 complete, 7 origins)",
	}
	for _, s := range Fig2SeriesSet {
		res.SeriesOrder = append(res.SeriesOrder, s.Name)
		for _, size := range Fig2Sizes {
			out := RunPutsComplete(PutsCompleteConfig{
				Origins: Fig2Origins,
				Puts:    Fig2Puts,
				Size:    size,
				Attrs:   s.Attrs,
				Mech:    s.Mech,
			})
			row := out.Row
			row.Series = s.Name
			row.Extra["msgs"] = float64(out.Msgs)
			row.Extra["lock_grants"] = float64(out.LockGrants)
			if !out.Verified {
				res.Notef("FAIL: series %q size %d left inconsistent target memory", s.Name, size)
			}
			res.absorbTelemetry(out.Telemetry)
			res.Add(row)
		}
	}
	fig2ShapeNotes(&res)
	res.noteTelemetry()
	return res
}

// fig2ShapeNotes checks the paper's qualitative claims on the model-time
// series and reports pass/fail notes.
func fig2ShapeNotes(res *Result) {
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
	none, ord := mean("no attributes"), mean("ordering")
	rc := mean("remote complete")
	thread := mean("atomicity + thread serializer")
	coarse := mean("atomicity + coarse lock")
	res.Check(ord <= none*1.05, "ordering is free on an ordered network (%.1fus vs %.1fus)", ord, none)
	res.Check(thread < coarse/2, "thread serializer ≪ coarse lock (%.1fus vs %.1fus)", thread, coarse)
	res.Check(coarse > none*2, "coarse lock pays a significant penalty over no attributes (%.1fus vs %.1fus)", coarse, none)
	res.Check(rc > none, "remote completion costs more than local completion (%.1fus vs %.1fus)", rc, none)
	// The paper's curves rise with payload size.
	first := func(series string) float64 {
		rows := res.SeriesRows(series)
		if len(rows) == 0 {
			return 0
		}
		return rows[0].ModelUS
	}
	last := func(series string) float64 {
		rows := res.SeriesRows(series)
		if len(rows) == 0 {
			return 0
		}
		return rows[len(rows)-1].ModelUS
	}
	res.Check(last("no attributes") > first("no attributes")*1.5,
		"cost grows with payload size (%.1fus at %dB vs %.1fus at %dB)",
		first("no attributes"), Fig2Sizes[0], last("no attributes"), Fig2Sizes[len(Fig2Sizes)-1])
}
