package bench

import (
	"time"

	"mpi3rma/internal/core"
	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
)

// RunE3 measures the ordering attribute on an *unordered* network
// (Section III-B: on networks without message ordering, the attribute
// "can still be guaranteed with a slight penalty"). Same workload as
// Figure 2; series with and without AttrOrdering, both on a scrambling
// network.
func RunE3() Result {
	res := Result{
		Name:  "e3",
		Title: "E3: ordering penalty on an unordered network (100 puts + 1 complete, 7 origins)",
		SeriesOrder: []string{
			"no attributes (unordered net)",
			"ordering (window=8)",
			"ordering (window=32)",
		},
	}
	type cell struct {
		series string
		attrs  core.Attr
		window int
	}
	cells := []cell{
		{res.SeriesOrder[0], core.AttrNone, 0},
		{res.SeriesOrder[1], core.AttrOrdering, 8},
		{res.SeriesOrder[2], core.AttrOrdering, 32},
	}
	for _, c := range cells {
		for _, size := range Fig2Sizes {
			window := c.window
			out := RunPutsComplete(PutsCompleteConfig{
				Origins:   Fig2Origins,
				Puts:      Fig2Puts,
				Size:      size,
				Attrs:     c.attrs,
				Mech:      serializer.MechThread,
				Unordered: true,
				WorldConfig: func(wc *runtime.Config) {
					if window > 0 {
						wc.ReorderWindow = window
					}
				},
			})
			row := out.Row
			row.Series = c.series
			row.Extra["held_ops"] = float64(out.HeldOps)
			res.Add(row)
		}
	}
	res.Notef("window = how many in-flight messages the network may scramble; held_ops = reorder-buffer work at the target")
	return res
}

// RunE4 measures remote completion when the network cannot report it
// (Section III-B: "on a network with no direct mechanism to check for
// remote completion ... remote completion may be guaranteed with a slight
// penalty"): hardware acknowledgements versus software echoes.
func RunE4() Result {
	res := Result{
		Name:        "e4",
		Title:       "E4: remote completion via hardware ACKs vs software echoes",
		SeriesOrder: []string{"remote complete (hardware acks)", "remote complete (software echo)"},
	}
	for _, soft := range []bool{false, true} {
		series := res.SeriesOrder[0]
		if soft {
			series = res.SeriesOrder[1]
		}
		for _, size := range Fig2Sizes {
			out := RunPutsComplete(PutsCompleteConfig{
				Origins:      Fig2Origins,
				Puts:         Fig2Puts,
				Size:         size,
				Attrs:        core.AttrRemoteComplete,
				Mech:         serializer.MechThread,
				SoftwareAcks: soft,
			})
			row := out.Row
			row.Series = series
			row.Extra["soft_acks"] = float64(out.SoftAcks)
			res.Add(row)
		}
	}
	return res
}

// RunE5 measures the non-cache-coherent target of Section III-B2: after
// the puts complete, the target must fence (invalidate its write-through
// scalar cache) before locally reading the deposited data — involvement
// the coherent machine never pays. The fence cost is modelled per
// invalidated line.
func RunE5() Result {
	res := Result{
		Name:        "e5",
		Title:       "E5: coherent vs non-cache-coherent target (target-side involvement)",
		SeriesOrder: []string{"coherent target", "non-coherent target"},
	}
	for _, size := range Fig2Sizes {
		for _, nonCoh := range []bool{false, true} {
			series := res.SeriesOrder[0]
			if nonCoh {
				series = res.SeriesOrder[1]
			}
			out := runE5Cell(size, nonCoh)
			out.Series = series
			res.Add(out)
		}
	}
	res.Notef("non-coherent rows include the target's fence/invalidate work; stale_reads counts reads that would have returned stale data without the fence")
	return res
}

// linInvalidateCost is the modelled per-cache-line invalidation cost at an
// SX-style target.
const lineInvalidateCost = 20 * time.Nanosecond

func runE5Cell(size int, nonCoherent bool) Row {
	w := runtime.NewWorld(runtime.Config{
		Ranks: Fig2Origins + 1,
		Coherence: func(rank int) memsim.Coherence {
			if nonCoherent && rank == 0 {
				return memsim.NonCoherentWriteThrough
			}
			return memsim.Coherent
		},
	})
	defer w.Close()
	var meas measure
	var staleWithoutFence, invalidated int64
	err := w.Run(func(p *runtime.Proc) {
		e := core.Attach(p, core.Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(size)
			enc := tm.Encode()
			for r := 1; r < p.Size(); r++ {
				p.Send(r, 0, enc)
			}
			// Prime the scalar cache so remote writes render it stale.
			_ = p.ReadLocal(region, 0, size)
			p.Barrier() // origins put between these barriers
			p.Barrier()
			// Demonstrate the hazard, then do it right: read (possibly
			// stale), fence, read again.
			_ = p.ReadLocal(region, 0, size)
			staleWithoutFence = p.Mem().StaleReads.Value()
			n := p.Mem().Fence()
			invalidated = int64(n)
			p.Advance(time.Duration(n) * lineInvalidateCost)
			_ = p.ReadLocal(region, 0, size)
			meas.record(p.Now())
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := core.DecodeTargetMem(enc)
		if err != nil {
			panic(err)
		}
		src := p.Alloc(size)
		p.Barrier()
		startVT := p.Now()
		for i := 0; i < Fig2Puts; i++ {
			if _, err := e.Put(src, size, datatype.Byte, tm, 0, size, datatype.Byte, 0, comm, core.AttrBlocking); err != nil {
				panic(err)
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			panic(err)
		}
		meas.record(p.Now() - startVT)
		p.Barrier()
	})
	if err != nil {
		panic(err)
	}
	row := meas.row("", size)
	row.Extra["stale_reads"] = float64(staleWithoutFence)
	row.Extra["lines_invalidated"] = float64(invalidated)
	return row
}

// RunE8 is the serializer ablation (Section V-A's two serializers plus the
// progress fallback and the non-atomic baseline): the Figure 2 atomic
// workload under each mechanism.
func RunE8() Result {
	res := Result{
		Name:  "e8",
		Title: "E8: serializer ablation for the atomicity attribute",
		SeriesOrder: []string{
			"non-atomic baseline",
			"atomic: thread serializer",
			"atomic: progress (poll 50us)",
			"atomic: coarse lock",
		},
	}
	type cell struct {
		series string
		attrs  core.Attr
		mech   serializer.Mechanism
		poll   time.Duration
	}
	cells := []cell{
		{res.SeriesOrder[0], core.AttrNone, serializer.MechThread, 0},
		{res.SeriesOrder[1], core.AttrAtomic, serializer.MechThread, 0},
		{res.SeriesOrder[2], core.AttrAtomic, serializer.MechProgress, 50 * time.Microsecond},
		{res.SeriesOrder[3], core.AttrAtomic, serializer.MechCoarseLock, 0},
	}
	for _, c := range cells {
		for _, size := range Fig2Sizes {
			out := RunPutsComplete(PutsCompleteConfig{
				Origins:     Fig2Origins,
				Puts:        Fig2Puts,
				Size:        size,
				Attrs:       c.attrs,
				Mech:        c.mech,
				TargetPolls: c.poll,
			})
			row := out.Row
			row.Series = c.series
			row.Extra["lock_contended"] = float64(out.LockContended)
			res.Add(row)
		}
	}
	return res
}
