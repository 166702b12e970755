package bench

import (
	"mpi3rma/internal/armci"
	"mpi3rma/internal/core"
	"mpi3rma/internal/datatype"
	"mpi3rma/internal/gasnet"
	"mpi3rma/internal/mpi2rma"
	"mpi3rma/internal/runtime"
)

// RunFig1 quantifies Figure 1's three MPI-2 synchronization methods
// against the strawman's single-call put: the per-epoch cost of moving one
// payload between two ranks under fence, PSCW, lock-unlock, and strawman
// blocking put (with and without a Complete).
func RunFig1() Result {
	res := Result{
		Name:  "fig1",
		Title: "Figure 1 / E6: synchronization cost per transfer, 2 ranks",
		SeriesOrder: []string{
			"strawman blocking put",
			"strawman put + complete",
			"mpi2 fence epoch",
			"mpi2 post-start-complete-wait",
			"mpi2 lock-unlock",
		},
	}
	const iters = 50
	for _, size := range Fig2Sizes {
		for _, series := range res.SeriesOrder {
			row := runFig1Cell(series, size, iters)
			row.Series = series
			res.Add(row)
		}
	}
	res.Notef("each row is the mean cost of one transfer epoch over %d iterations", iters)
	return res
}

// runFig1Cell measures one (mode, size) cell: rank 1 repeatedly moves size
// bytes to rank 0 under the given synchronization mode; the reported times
// are per iteration.
func runFig1Cell(series string, size, iters int) Row {
	w := runtime.NewWorld(runtime.Config{Ranks: 2})
	defer w.Close()
	var meas measure
	err := w.Run(func(p *runtime.Proc) {
		e := core.Attach(p, core.Options{})
		r2 := mpi2rma.Attach(p)
		comm := p.Comm()
		region := p.Alloc(size)
		win, err := r2.WinCreate(comm, region)
		if err != nil {
			panic(err)
		}
		tms, err := core.ExchangeTargetMem(comm, e.Expose(region))
		if err != nil {
			panic(err)
		}
		tm0 := tms[0]
		src := p.Alloc(size)

		p.Barrier()
		startVT := p.Now()
		for i := 0; i < iters; i++ {
			switch series {
			case "strawman blocking put":
				if p.Rank() == 1 {
					if _, err := e.Put(src, size, datatype.Byte, tm0, 0, size, datatype.Byte, 0, comm, core.AttrBlocking); err != nil {
						panic(err)
					}
				}
			case "strawman put + complete":
				if p.Rank() == 1 {
					if _, err := e.Put(src, size, datatype.Byte, tm0, 0, size, datatype.Byte, 0, comm, core.AttrBlocking); err != nil {
						panic(err)
					}
					if err := e.Complete(comm, 0); err != nil {
						panic(err)
					}
				}
			case "mpi2 fence epoch":
				if err := win.Fence(); err != nil {
					panic(err)
				}
				if p.Rank() == 1 {
					if err := win.Put(src, size, datatype.Byte, 0, 0, size, datatype.Byte); err != nil {
						panic(err)
					}
				}
				if err := win.Fence(); err != nil {
					panic(err)
				}
			case "mpi2 post-start-complete-wait":
				if p.Rank() == 0 {
					if err := win.Post([]int{1}); err != nil {
						panic(err)
					}
					if err := win.Wait(); err != nil {
						panic(err)
					}
				} else {
					if err := win.Start([]int{0}); err != nil {
						panic(err)
					}
					if err := win.Put(src, size, datatype.Byte, 0, 0, size, datatype.Byte); err != nil {
						panic(err)
					}
					if err := win.Complete(); err != nil {
						panic(err)
					}
				}
			case "mpi2 lock-unlock":
				if p.Rank() == 1 {
					if err := win.Lock(mpi2rma.LockShared, 0); err != nil {
						panic(err)
					}
					if err := win.Put(src, size, datatype.Byte, 0, 0, size, datatype.Byte); err != nil {
						panic(err)
					}
					if err := win.Unlock(0); err != nil {
						panic(err)
					}
				}
			}
		}
		if p.Rank() == 1 || series == "mpi2 fence epoch" || series == "mpi2 post-start-complete-wait" {
			meas.record(p.Now() - startVT)
		}
		p.Barrier()
	})
	if err != nil {
		panic(err)
	}
	row := meas.row("", size)
	row.ModelUS /= float64(iters)
	return row
}

// RunE7 compares the strawman with the ARMCI-like and GASNet-like layers
// (Section VI): contiguous put round, strided put round (where supported),
// and accumulate round (where supported). Unsupported cells are recorded
// with a NaN-free sentinel of -1 and called out in the support matrix.
func RunE7() Result {
	res := Result{
		Name:  "e7",
		Title: "E7: strawman vs ARMCI vs GASNet (Section VI)",
		SeriesOrder: []string{
			"strawman contiguous put",
			"armci contiguous put",
			"gasnet contiguous put",
			"strawman strided put",
			"armci strided put",
			"strawman accumulate",
			"armci accumulate",
		},
	}
	const iters = 50
	for _, size := range []int{64, 256, 1024} {
		for _, series := range res.SeriesOrder {
			row := runE7Cell(series, size, iters)
			row.Series = series
			res.Add(row)
		}
	}
	res.Notef("support matrix: accumulate — strawman yes (full op set), ARMCI yes (daxpy only), GASNet NO")
	res.Notef("support matrix: noncontiguous — strawman yes (datatypes), ARMCI yes (strided/vector), GASNet NO (extended API v1.8)")
	res.Notef("support matrix: blocking-unordered / per-subset completion — strawman only (paper Section VI)")
	return res
}

func runE7Cell(series string, size, iters int) Row {
	w := runtime.NewWorld(runtime.Config{Ranks: 2})
	defer w.Close()
	var meas measure
	err := w.Run(func(p *runtime.Proc) {
		e := core.Attach(p, core.Options{})
		ac := armci.Attach(p)
		gn := gasnet.Attach(p)
		comm := p.Comm()
		tms, _, err := ac.Malloc(comm, size*8)
		if err != nil {
			panic(err)
		}
		if _, err := gn.AttachSegment(comm, size*8); err != nil {
			panic(err)
		}
		src := p.Alloc(size * 8)
		nf64 := size / 8 // float64 elements for accumulates
		// Strided layout: size bytes as size/16 blocks of 16 bytes, every
		// other 16-byte slot.
		blocks := size / 16
		spec := armci.StridedSpec{Off: 0, Strides: []int{32}}
		counts := []int{blocks}
		vec := datatype.Vector(blocks, 16, 32, datatype.Byte)

		p.Barrier()
		startVT := p.Now()
		if p.Rank() == 1 {
			for i := 0; i < iters; i++ {
				switch series {
				case "strawman contiguous put":
					if _, err := e.Put(src, size, datatype.Byte, tms[0], 0, size, datatype.Byte, 0, comm, core.AttrBlocking|core.AttrOrdering); err != nil {
						panic(err)
					}
				case "armci contiguous put":
					if err := ac.Put(src, 0, tms[0], 0, size); err != nil {
						panic(err)
					}
				case "gasnet contiguous put":
					if err := gn.Put(0, comm, 0, src, 0, size); err != nil {
						panic(err)
					}
				case "strawman strided put":
					if _, err := e.Put(src, 1, vec, tms[0], 0, 1, vec, 0, comm, core.AttrBlocking|core.AttrOrdering); err != nil {
						panic(err)
					}
				case "armci strided put":
					if err := ac.PutS(src, spec, tms[0], spec, 16, counts); err != nil {
						panic(err)
					}
				case "strawman accumulate":
					if _, err := e.Accumulate(core.AccSum, src, nf64, datatype.Float64, tms[0], 0, nf64, datatype.Float64, 0, comm, core.AttrBlocking|core.AttrAtomic); err != nil {
						panic(err)
					}
				case "armci accumulate":
					if err := ac.Acc(1.0, src, 0, tms[0], 0, nf64); err != nil {
						panic(err)
					}
				}
			}
			meas.record(p.Now() - startVT)
		}
		p.Barrier()
	})
	if err != nil {
		panic(err)
	}
	row := meas.row("", size)
	row.ModelUS /= float64(iters)
	return row
}

// RunE9 measures the datatype engine (requirement 7 and Section III-B3):
// contiguous vs strided vs indexed layouts of the same volume, and a
// big-endian (byte-swapping) target.
func RunE9() Result {
	res := Result{
		Name:  "e9",
		Title: "E9: noncontiguous datatypes and heterogeneous (big-endian) targets",
		SeriesOrder: []string{
			"contiguous float64",
			"vector (every other element)",
			"indexed (random gather)",
			"contiguous to big-endian target",
		},
	}
	const iters = 50
	for _, elems := range []int{16, 64, 256} {
		for _, series := range res.SeriesOrder {
			row := runE9Cell(series, elems, iters)
			row.Series = series
			res.Add(row)
		}
	}
	res.Notef("sizes are float64 element counts; wire volume is identical across layouts at each count")
	return res
}

func runE9Cell(series string, elems, iters int) Row {
	bigEndian := series == "contiguous to big-endian target"
	cfg := runtime.Config{Ranks: 2}
	if bigEndian {
		cfg.ByteOrder = func(rank int) datatype.ByteOrder {
			if rank == 0 {
				return datatype.BigEndian
			}
			return datatype.LittleEndian
		}
	}
	w := runtime.NewWorld(cfg)
	defer w.Close()

	var dt datatype.Type
	span := elems * 8
	switch series {
	case "vector (every other element)":
		dt = datatype.Vector(elems, 1, 2, datatype.Float64)
		span = elems * 16
	case "indexed (random gather)":
		blocklens := make([]int, elems)
		displs := make([]int, elems)
		for i := range displs {
			blocklens[i] = 1
			displs[i] = i*3 + (i % 2) // irregular but non-overlapping
		}
		dt = datatype.Indexed(blocklens, displs, datatype.Float64)
		span = (elems*3 + 2) * 8
	default:
		dt = datatype.Contiguous(elems, datatype.Float64)
	}

	var meas measure
	err := w.Run(func(p *runtime.Proc) {
		e := core.Attach(p, core.Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, _ := e.ExposeNew(span)
			p.Send(1, 0, tm.Encode())
			p.Barrier()
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := core.DecodeTargetMem(enc)
		if err != nil {
			panic(err)
		}
		src := p.Alloc(span)
		startVT := p.Now()
		for i := 0; i < iters; i++ {
			if _, err := e.Put(src, 1, dt, tm, 0, 1, dt, 0, comm, core.AttrBlocking); err != nil {
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
	row := meas.row("", elems)
	row.ModelUS /= float64(iters)
	return row
}

// RunE10 measures completion granularity (Section IV): after scattering
// puts to every rank, complete per-rank in a loop, with AllRanks in one
// call, or collectively.
func RunE10() Result {
	res := Result{
		Name:  "e10",
		Title: "E10: completion granularity — per-rank loop vs MPI_ALL_RANKS vs collective",
		SeriesOrder: []string{
			"loop Complete(r) over ranks",
			"Complete(ALL_RANKS)",
			"CompleteCollective",
		},
	}
	const putsPerTarget = 20
	for _, ranks := range []int{4, 8, 16} {
		for _, series := range res.SeriesOrder {
			row := runE10Cell(series, ranks, putsPerTarget)
			row.Series = series
			res.Add(row)
		}
	}
	res.Notef("size column is the world size; %d puts of 64B per target before completing", putsPerTarget)
	return res
}

func runE10Cell(series string, ranks, puts int) Row {
	w := runtime.NewWorld(runtime.Config{Ranks: ranks})
	defer w.Close()
	var meas measure
	err := w.Run(func(p *runtime.Proc) {
		e := core.Attach(p, core.Options{})
		comm := p.Comm()
		const size = 64
		tms, _, err := e.ExposeCollective(comm, size*ranks)
		if err != nil {
			panic(err)
		}
		src := p.Alloc(size)
		p.Barrier()
		startVT := p.Now()
		for t := 0; t < ranks; t++ {
			if t == p.Rank() {
				continue
			}
			for i := 0; i < puts; i++ {
				if _, err := e.Put(src, size, datatype.Byte, tms[t], p.Rank()*size, size, datatype.Byte, t, comm, core.AttrNone); err != nil {
					panic(err)
				}
			}
		}
		switch series {
		case "loop Complete(r) over ranks":
			for t := 0; t < ranks; t++ {
				if err := e.Complete(comm, t); err != nil {
					panic(err)
				}
			}
		case "Complete(ALL_RANKS)":
			if err := e.Complete(comm, core.AllRanks); err != nil {
				panic(err)
			}
		case "CompleteCollective":
			if err := e.CompleteCollective(comm); err != nil {
				panic(err)
			}
		}
		meas.record(p.Now() - startVT)
		p.Barrier()
	})
	if err != nil {
		panic(err)
	}
	return meas.row("", ranks)
}
