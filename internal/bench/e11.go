package bench

import (
	"mpi3rma/internal/core"
	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
)

// RunE11 measures synchronization strength (paper Section IV:
// MPI_RMA_order is "a weaker form of synchronization than remote
// completion"): after each small batch of puts, the origin issues either
// nothing, an Order (delivery ordering for later ops), or a Complete
// (remote completion). On an unordered network Order costs a stall only
// when a later operation actually follows; Complete always pays the probe
// round trip.
func RunE11() Result {
	res := Result{
		Name:  "e11",
		Title: "E11: synchronization strength — none vs Order (shmem_fence) vs Complete (quiet)",
		SeriesOrder: []string{
			"no sync between batches",
			"Order between batches",
			"Complete between batches",
		},
	}
	const batches = 25
	const perBatch = 4
	for _, unordered := range []bool{false, true} {
		netName := "ordered net"
		if unordered {
			netName = "unordered net"
		}
		for i, series := range res.SeriesOrder {
			row, tel := runE11Cell(i, unordered, batches, perBatch)
			row.Series = series
			row.Extra["net_unordered"] = boolTo01(unordered)
			res.absorbTelemetry(tel)
			res.Add(row)
			_ = netName
		}
	}
	res.Notef("size column: 0 = ordered network, 1 = unordered network; %d batches of %d 64B puts", batches, perBatch)
	res.Notef("expected: Order free on ordered nets, cheaper than Complete on unordered nets")
	res.noteTelemetry()
	return res
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runE11Cell: mode 0 = none, 1 = Order, 2 = Complete between batches.
func runE11Cell(mode int, unordered bool, batches, perBatch int) (Row, *TelemetrySummary) {
	w := runtime.NewWorld(runtime.Config{Ranks: 2, UnorderedNet: unordered, Seed: 77})
	defer w.Close()
	var meas measure
	var fenceStalls int64
	col := newCollector()
	err := w.Run(func(p *runtime.Proc) {
		e := core.Attach(p, core.Options{})
		col.attach(p.Rank(), e)
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, _ := e.ExposeNew(64)
			p.Send(1, 0, tm.Encode())
			p.Barrier()
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := core.DecodeTargetMem(enc)
		if err != nil {
			panic(err)
		}
		src := p.Alloc(64)
		startVT := p.Now()
		for b := 0; b < batches; b++ {
			for i := 0; i < perBatch; i++ {
				if _, err := e.Put(src, 64, datatype.Byte, tm, 0, 64, datatype.Byte, 0, comm, core.AttrBlocking); err != nil {
					panic(err)
				}
			}
			switch mode {
			case 1:
				if err := e.Order(comm, 0); err != nil {
					panic(err)
				}
			case 2:
				if err := e.Complete(comm, 0); err != nil {
					panic(err)
				}
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			panic(err)
		}
		meas.record(p.Now() - startVT)
		fenceStalls = e.FenceStalls.Value()
		p.Barrier()
	})
	if err != nil {
		panic(err)
	}
	size := 0
	if unordered {
		size = 1
	}
	row := meas.row("", size)
	row.Extra["fence_stalls"] = float64(fenceStalls)
	return row, col.summary()
}
