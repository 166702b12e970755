// Global counter: dynamic load balancing with the strawman's RMW
// extension (paper Section V: conditional and unconditional
// read-modify-write operations "are being discussed in the MPI forum as a
// part of this strawman proposal").
//
// This is the Global Arrays / NWChem idiom the paper's Section II points
// at: a shared task counter lives in rank 0's memory; workers grab task
// ids with FetchAdd (the unconditional RMW) until the pool is drained,
// and the run's "result" per task is accumulated back into a shared
// result vector with atomic accumulates. A CompareSwap elects a winner to
// print the report, demonstrating the conditional RMW.
//
// Run with:
//
//	go run ./examples/globalcounter
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

const (
	ranks = 6
	tasks = 100
)

func main() {
	world := runtime.NewWorld(runtime.Config{Ranks: ranks})
	defer world.Close()

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		comm := p.Comm()
		me := p.Rank()

		// Rank 0 owns the counter (8B), a per-rank work tally
		// (ranks x 8B), and the election flag (8B).
		var tm rma.TargetMem
		if me == 0 {
			tm, _ = s.Expose(8 + ranks*8 + 8)
			enc := tm.Encode()
			for r := 1; r < ranks; r++ {
				p.Send(r, 0, enc)
			}
		} else {
			enc, _ := p.Recv(0, 0)
			var err error
			tm, err = rma.DecodeTargetMem(enc)
			if err != nil {
				log.Fatal(err)
			}
		}
		const (
			offCounter = 0
			offTally   = 8
			offElect   = 8 + ranks*8
		)

		// Everyone (including rank 0) works the task pool.
		grabbed := 0
		for {
			id, err := s.FetchAdd(tm, offCounter, 1)
			if err != nil {
				log.Fatal(err)
			}
			if id >= tasks {
				break
			}
			grabbed++
			// "Process" task id: a sliver of real work so the Go scheduler
			// interleaves the workers, plus virtual compute time (heavier
			// for some ids) so the modelled balance is interesting.
			time.Sleep(50 * time.Microsecond)
			p.Advance(time.Duration(1000 * (1 + id%7)))
		}

		// Tally our work into the shared vector with an atomic accumulate.
		src := p.Alloc(8)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(grabbed))
		p.WriteLocal(src, 0, b[:])
		if _, err := s.Accumulate(rma.Sum, src, 1, rma.Int64, tm, offTally+me*8,
			rma.WithAtomic(), rma.WithBlocking()); err != nil {
			log.Fatal(err)
		}
		if err := s.CompleteCollective(); err != nil {
			log.Fatal(err)
		}

		// Conditional RMW: first rank to swap 0->rank+1 wins reporting.
		old, err := s.CompareSwap(tm, offElect, 0, int64(me+1))
		if err != nil {
			log.Fatal(err)
		}
		if old == 0 {
			fmt.Printf("rank %d won the CAS election\n", me)
		}
		comm.Barrier()
		if me == 0 {
			// Rank 0 can read its own memory directly.
			fmt.Printf("global counter drained %d tasks across %d ranks\n", tasks, ranks)
			sum := int64(0)
			for r := 0; r < ranks; r++ {
				v := int64(binary.LittleEndian.Uint64(p.Mem().Snapshot(offTally+r*8, 8)))
				fmt.Printf("  rank %d grabbed %d tasks\n", r, v)
				sum += v
			}
			fmt.Printf("  total %d (expected %d)\n", sum, tasks)
		}
		comm.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}
}
