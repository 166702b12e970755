package bench

import (
	"encoding/binary"
	"fmt"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

// E15 — overlap efficiency of event-driven completion (DESIGN.md §11).
//
// A ring of ranks runs a halo-exchange pipeline: every sweep each rank
// pushes an H-byte boundary record to both neighbours with notified puts,
// models `grain` nanoseconds of interior compute, folds the neighbours'
// values into a running accumulator, and repeats. The two series issue
// the SAME one-sided transfers and do the SAME compute; they differ only
// in when they wait:
//
//	blocking  — push, Complete toward both neighbours, barrier, THEN
//	            compute: communication and compute strictly alternate,
//	            the shape every pre-PR-6 caller was forced into.
//	pipelined — push into parity-indexed double ghost slots, compute
//	            WHILE the halos fly, then Select(OnApplied) on each
//	            neighbour's delivery counter: the event surface overlaps
//	            halo latency with compute and drops the per-sweep
//	            barrier entirely.
//
// Sweeping the compute grain moves the workload from communication-bound
// (grain 0: nothing to overlap) to compute-bound (large grain: all the
// halo latency hides). The efficiency column reports the fraction of the
// ideal overlap window actually won:
//
//	efficiency = (blocking - pipelined) / min(total compute, comm-only blocking time)
//
// Acceptance (EXPERIMENTS.md): pipelined modelled time is strictly below
// blocking at every nonzero grain — overlap efficiency > 0 — and both
// variants fold byte-identical accumulator states, proving the parity
// ghosts + Select discipline delivers exactly the values the barriers
// did.

// E15Ranks is the ring size.
const E15Ranks = 4

// E15Sweeps is the number of halo-exchange iterations per run.
const E15Sweeps = 40

// E15Halo is the boundary record size in bytes (the first 8 carry the
// folded value; the rest model the real surface data riding along).
const E15Halo = 4096

// E15Grains sweeps the modelled interior-compute time per sweep, in
// nanoseconds. Grain 0 is the communication-bound edge used as the
// comm-only reference; the overlap claim covers the nonzero grains.
var E15Grains = []vtime.Duration{0, 5_000, 20_000, 80_000, 320_000}

// e15Outcome is one variant's run: the slowest rank's virtual finish
// time and every rank's final accumulator (the byte-identical check).
type e15Outcome struct {
	model vtime.Time
	accs  []int64
}

// runE15Halo drives one variant of the halo pipeline.
func runE15Halo(pipelined bool, grain vtime.Duration) e15Outcome {
	var out e15Outcome
	world := runtime.NewWorld(runtime.Config{Ranks: E15Ranks})
	defer world.Close()

	// Ghost layout per neighbour side: one slot blocking, two
	// parity-indexed slots pipelined. Left-side slots first.
	slots := 1
	if pipelined {
		slots = 2
	}
	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithEvents(4*E15Sweeps))
		comm := p.Comm()
		me := p.Rank()
		left := (me + E15Ranks - 1) % E15Ranks
		right := (me + 1) % E15Ranks

		tms, region, err := s.ExposeCollective(2 * slots * E15Halo)
		if err != nil {
			panic(err)
		}
		// ghost(side, parity) is the byte offset of a ghost slot; side 0
		// receives from the left neighbour, side 1 from the right.
		ghost := func(side, parity int) int { return (side*slots + parity) * E15Halo }

		buf := p.Alloc(E15Halo)
		rec := make([]byte, E15Halo)
		// push sends this rank's current value into one neighbour's ghost
		// slot: into the left neighbour's right-side slot and the right
		// neighbour's left-side slot. The pipelined discipline keeps two
		// halos to the same neighbour in flight, and OnApplied thresholds
		// count applications without naming which op applied — so its
		// pushes carry Ordering, turning "count reached k" into "the
		// first k pushes landed". The blocking variant's complete+barrier
		// never leaves two in flight, so it skips that cost.
		var pushOpts []rma.OpOption
		if pipelined {
			pushOpts = []rma.OpOption{rma.WithOrdering()}
		}
		push := func(val uint64, parity int) {
			binary.LittleEndian.PutUint64(rec, val)
			p.WriteLocal(buf, 0, rec)
			for _, dst := range []struct{ nb, side int }{{left, 1}, {right, 0}} {
				req, err := s.PutNotify(buf, E15Halo, rma.Byte, tms[dst.nb], ghost(dst.side, parity), pushOpts...)
				if err != nil {
					panic(err)
				}
				req.OnDone(func(err error) {
					if err != nil {
						panic(err)
					}
				})
			}
		}
		read := func(side, parity int) uint64 {
			return binary.LittleEndian.Uint64(p.ReadLocal(region, ghost(side, parity), 8))
		}
		fold := func(acc, lv, rv uint64, sweep int) uint64 {
			return acc*31 + lv + rv + uint64(sweep)
		}

		acc := uint64(me + 1)
		if !pipelined {
			for sweep := 0; sweep < E15Sweeps; sweep++ {
				push(acc, 0)
				if err := s.Complete(left, right); err != nil {
					panic(err)
				}
				comm.Barrier() // every ghost everywhere is fresh
				p.Advance(grain)
				acc = fold(acc, read(0, 0), read(1, 0), sweep)
				comm.Barrier() // no one overwrites a ghost still being read
			}
		} else {
			// Seed the parity-0 slots with the initial value, then keep
			// one sweep of halos in flight: compute rides over their
			// latency, and Select(OnApplied) — cumulative delivery count
			// sweep+1, seed included — is the only wait.
			push(acc, 0)
			for sweep := 0; sweep < E15Sweeps; sweep++ {
				q := sweep % 2
				p.Advance(grain)
				for _, nb := range []int{left, right} {
					if _, _, err := s.Select(rma.OnApplied(nb, int64(sweep+1))); err != nil {
						panic(err)
					}
				}
				acc = fold(acc, read(0, q), read(1, q), sweep)
				if sweep < E15Sweeps-1 {
					push(acc, 1-q)
				}
			}
			if err := s.Complete(left, right); err != nil {
				panic(err)
			}
		}

		finish := comm.AllreduceInt64(runtime.OpMax, int64(p.Now()))
		accs := comm.AllgatherInt64(int64(acc))
		if me == 0 {
			out.model = vtime.Time(finish)
			out.accs = accs
		}
	})
	if err != nil {
		panic(err)
	}
	return out
}

// RunE15 sweeps compute grain against completion discipline.
func RunE15() Result {
	res := Result{
		Name: "e15",
		Title: fmt.Sprintf("E15: compute/communication overlap via event-driven completion (%d-rank ring, %d sweeps, %d B halos)",
			E15Ranks, E15Sweeps, E15Halo),
	}
	const blockName = "blocking (complete+barrier, then compute)"
	const pipeName = "pipelined (compute while halos fly, Select)"
	res.SeriesOrder = []string{blockName, pipeName}

	type cell struct{ block, pipe e15Outcome }
	cells := make([]cell, len(E15Grains))
	for i, g := range E15Grains {
		cells[i] = cell{runE15Halo(false, g), runE15Halo(true, g)}
	}
	// Comm-only reference: blocking at grain 0 is the pure
	// communication+synchronization cost of one run.
	commOnly := float64(cells[0].block.model)

	add := func(series string, grain vtime.Duration, out e15Outcome, eff float64) {
		row := Row{
			Series:  series,
			Size:    int(grain) / 1000, // column: compute grain in us
			ModelUS: float64(out.model) / 1e3,
			Extra:   map[string]float64{},
		}
		if eff >= 0 {
			row.Extra["overlap_eff_pct"] = 100 * eff
		}
		res.Add(row)
	}
	for i, g := range E15Grains {
		c := cells[i]
		add(blockName, g, c.block, -1)
		eff := -1.0
		if g > 0 {
			compute := float64(E15Sweeps) * float64(g)
			window := compute
			if commOnly < window {
				window = commOnly
			}
			if window > 0 {
				eff = (float64(c.block.model) - float64(c.pipe.model)) / window
			}
		}
		add(pipeName, g, c.pipe, eff)
	}

	// Shape notes: the acceptance claims, self-validating.
	for i, g := range E15Grains {
		c := cells[i]
		same := len(c.block.accs) == len(c.pipe.accs) && len(c.block.accs) > 0
		if same {
			for r := range c.block.accs {
				same = same && c.block.accs[r] == c.pipe.accs[r]
			}
		}
		res.Check(same, "grain %dus: pipelined accumulators byte-identical to blocking", int(g)/1000)
		if g == 0 {
			continue
		}
		win := float64(c.block.model) - float64(c.pipe.model)
		res.Check(win > 0, "grain %dus: pipelined modelled time strictly below blocking (%.1fus < %.1fus, overlap efficiency > 0)",
			int(g)/1000, float64(c.pipe.model)/1e3, float64(c.block.model)/1e3)
	}
	res.Notef("comm-only reference (blocking, grain 0): %.1fus; efficiency = won time / min(total compute, comm-only); "+
		"values above 100%% mean the event surface also eliminated synchronization the blocking shape paid (the per-sweep barriers), "+
		"not just overlapped the halos", commOnly/1e3)
	return res
}
