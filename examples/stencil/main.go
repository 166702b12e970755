// Stencil: a 1-D Jacobi iteration with RMA halo exchange — the PGAS-style
// workload the paper's introduction motivates (Section II: PGAS languages
// and libraries rely on efficient RMA for exactly this pattern).
//
// The global domain of N float64 cells is block-distributed over the
// ranks. The example runs the sweep loop twice and compares the two runs:
//
//   - Blocking: every sweep pushes the boundary cells into the neighbours'
//     ghost slots, waits for remote completion, barriers, and only then
//     relaxes — communication and compute strictly alternate.
//
//   - Pipelined: each side has TWO ghost slots, indexed by sweep parity.
//     A sweep pushes its boundary values into the neighbours' next-parity
//     slots, relaxes the interior cells (which need no ghosts) while the
//     halos fly, then Selects on the neighbour's delivery counter
//     (OnApplied, threshold sweep+1) and finishes the two edge cells. No
//     per-sweep barrier, no blocking Complete — the event surface
//     overlaps all halo latency with interior compute. The parity slots
//     make the run-ahead safe by data dependency alone: a neighbour can
//     only overwrite a slot after it received this rank's next boundary,
//     which is only pushed after this rank has read that slot.
//
// Both runs produce byte-identical cells (the example checks), and the
// pipelined run finishes earlier in virtual time — the overlap the
// paper's asynchronous one-sided interface exists to expose.
//
// Run with:
//
//	go run ./examples/stencil
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"math"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

const (
	ranks   = 4
	perRank = 64  // cells per rank
	sweeps  = 200 // Jacobi iterations
)

// result is one run's observable outcome: the full domain gathered at
// rank 0, and the latest virtual finish time across ranks.
type result struct {
	cells  []byte
	finish int64
}

func main() {
	blocking := runStencil(false)
	pipelined := runStencil(true)

	fmt.Printf("stencil: %d ranks x %d cells, %d sweeps\n", ranks, perRank, sweeps)
	fmt.Printf("blocking  finish: %d ns modelled\n", blocking.finish)
	fmt.Printf("pipelined finish: %d ns modelled\n", pipelined.finish)
	if pipelined.finish < blocking.finish {
		gain := float64(blocking.finish-pipelined.finish) / float64(blocking.finish)
		fmt.Printf("overlap won %.1f%% of the modelled run\n", 100*gain)
	}
	if bytes.Equal(blocking.cells, pipelined.cells) {
		fmt.Println("pipelined cells byte-identical to blocking: ok")
	} else {
		log.Fatal("pipelined run diverged from blocking bytes")
	}
	edge := make([]float64, 8)
	for i := range edge {
		edge[i] = math.Float64frombits(binary.LittleEndian.Uint64(pipelined.cells[i*8:]))
	}
	fmt.Printf("left-edge temperatures: ")
	for _, v := range edge {
		fmt.Printf("%.2f ", v)
	}
	fmt.Println()
}

func runStencil(pipelined bool) result {
	// Layout per rank: two ghost slots per side when pipelined (parity-
	// indexed), one otherwise, around perRank interior cells.
	ghosts := 1
	if pipelined {
		ghosts = 2
	}
	first := ghosts              // first owned cell
	last := ghosts + perRank - 1 // last owned cell
	total := perRank + 2*ghosts

	var res result
	world := runtime.NewWorld(runtime.Config{Ranks: ranks})
	defer world.Close()

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		comm := p.Comm()
		me := p.Rank()

		tms, region, err := s.ExposeCollective(total * 8)
		if err != nil {
			log.Fatal(err)
		}

		set := func(idx int, v float64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			p.WriteLocal(region, idx*8, b[:])
		}
		get := func(idx int) float64 {
			b := p.ReadLocal(region, idx*8, 8)
			return math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
		for i := 0; i < total; i++ {
			set(i, 0)
		}
		// Fixed Dirichlet boundary at the global left edge: every left
		// ghost slot of rank 0 permanently holds 100.
		if me == 0 {
			for g := 0; g < ghosts; g++ {
				set(g, 100)
			}
		}

		left, right := me-1, me+1
		var neighbors []int
		if left >= 0 {
			neighbors = append(neighbors, left)
		}
		if right < ranks {
			neighbors = append(neighbors, right)
		}

		scratch := p.Alloc(8)
		// push sends one boundary value into a neighbour's ghost slot. The
		// pipelined variant keeps two pushes to the same neighbour in
		// flight and waits on delivery *counts*, so its pushes carry the
		// Ordering attribute: count k means the first k pushes applied,
		// not any k of them. Blocking never overlaps two, so it skips it.
		pushOpts := []rma.OpOption{rma.WithNotify()}
		if pipelined {
			pushOpts = append(pushOpts, rma.WithOrdering())
		}
		push := func(v float64, neighbor, ghostIdx int) *rma.Request {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			p.WriteLocal(scratch, 0, b[:])
			req, err := s.Put(scratch, 1, rma.Float64, tms[neighbor], ghostIdx*8, pushOpts...)
			if err != nil {
				log.Fatal(err)
			}
			return req
		}

		old := make([]float64, total)
		snap := func() {
			for i := 0; i < total; i++ {
				old[i] = get(i)
			}
		}

		if !pipelined {
			// Blocking variant: push, complete, barrier, relax — the
			// strictly alternating shape.
			for sweep := 0; sweep < sweeps; sweep++ {
				var reqs []*rma.Request
				if left >= 0 {
					reqs = append(reqs, push(get(first), left, total-1))
				}
				if right < ranks {
					reqs = append(reqs, push(get(last), right, 0))
				}
				for _, req := range reqs {
					if err := req.Await(); err != nil {
						log.Fatal(err)
					}
				}
				if err := s.Complete(neighbors...); err != nil {
					log.Fatal(err)
				}
				comm.Barrier()
				snap()
				lo, hi := first, last
				if me == ranks-1 {
					hi--
				}
				for i := lo; i <= hi; i++ {
					set(i, 0.5*(old[i-1]+old[i+1]))
				}
				if me == 0 {
					set(0, 100)
				}
				comm.Barrier()
			}
		} else {
			// Pipelined variant. Ghost slots by parity: left side at
			// {0, 1}, right side at {total-2, total-1}; parity q uses
			// left slot q and right slot total-2+q. Sweep k reads parity
			// k%2 and pushes the values it computes into parity (k+1)%2.
			//
			// Seed: parity-0 ghosts must hold the neighbours' initial
			// boundary (all zeros here, but push them anyway so the
			// delivery counters align: after sweep k each neighbour has
			// applied k+1 of this rank's puts).
			// Every in-flight halo is tracked by an OnDone callback: any
			// asynchronous failure (a link giving out mid-run) surfaces
			// instead of silently stalling a ghost slot.
			track := func(req *rma.Request) {
				req.OnDone(func(err error) {
					if err != nil {
						log.Fatal(err)
					}
				})
			}
			if left >= 0 {
				track(push(get(first), left, total-2)) // left nb's right slot, parity 0
			}
			if right < ranks {
				track(push(get(last), right, 0)) // right nb's left slot, parity 0
			}
			waitHalos := func(threshold int) {
				for _, nb := range neighbors {
					if _, _, err := s.Select(rma.OnApplied(nb, int64(threshold))); err != nil {
						log.Fatal(err)
					}
				}
			}
			waitHalos(1) // seed halos must land before sweep 0 reads them

			for sweep := 0; sweep < sweeps; sweep++ {
				q := sweep % 2
				gL, gR := q, total-2+q // ghost slots this sweep reads
				snap()
				// The new boundary values depend only on data already
				// local — old interior plus this sweep's parity ghosts —
				// so compute and push them first, and let the halos fly
				// over the interior relaxation.
				newFirst := 0.5 * (old[gL] + old[first+1])
				newLast := 0.5 * (old[last-1] + old[gR])
				if me == ranks-1 {
					newLast = old[last] // fixed global right edge
				}
				if sweep < sweeps-1 { // the final sweep's halos have no reader
					if left >= 0 {
						// Left neighbour's right slot of parity 1-q.
						track(push(newFirst, left, total-2+(1-q)))
					}
					if right < ranks {
						// Right neighbour's left slot of parity 1-q.
						track(push(newLast, right, 1-q))
					}
				}
				// Interior cells need no ghosts at all: this is the work
				// the in-flight halos overlap.
				for i := first + 1; i < last; i++ {
					set(i, 0.5*(old[i-1]+old[i+1]))
				}
				set(first, newFirst)
				set(last, newLast)
				// The next sweep reads the parity 1-q ghosts, filled by
				// the neighbours' sweep-`sweep` pushes: wait for their
				// cumulative delivery counts to reach sweep+2 (the seed
				// plus one per sweep so far).
				if sweep < sweeps-1 {
					waitHalos(sweep + 2)
				}
			}
			// Drain outstanding remote completions before measuring.
			if err := s.Complete(neighbors...); err != nil {
				log.Fatal(err)
			}
		}

		// Gather the owned cells and the finish time at rank 0.
		own := make([]byte, perRank*8)
		copy(own, p.Mem().Snapshot(region.Offset+first*8, perRank*8))
		finish := comm.AllreduceInt64(runtime.OpMax, int64(p.Now()))
		parts := comm.Gather(0, own)
		if me == 0 {
			var all []byte
			for _, part := range parts {
				all = append(all, part...)
			}
			res.cells = all
			res.finish = finish
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
