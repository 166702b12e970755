// The non-cache-coherent hazard, live — Section III-B2 of the paper:
//
//	"Since data in cache may have been invalidated by a write by another
//	processor ... it may be necessary to clear the cache or to circumvent
//	the cache by reading directly from memory. ... For RMA, this implies
//	that involvement of the target is needed."
//
// Rank 0 runs with an NEC-SX-style non-coherent write-through scalar
// cache. It primes its cache by reading its exposed buffer, rank 1 then
// RMA-puts new data into it, and rank 0 reads again: the scalar cache
// serves the STALE value. Only after an explicit memory fence does the
// new data appear — target-side involvement the coherent machine never
// needs, demonstrated side by side.
//
// Run with:
//
//	go run ./examples/noncoherent
package main

import (
	"fmt"
	"log"

	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

func run(coherent bool) {
	label := "non-coherent (NEC SX-like)"
	coh := memsim.NonCoherentWriteThrough
	if coherent {
		label = "cache-coherent (Cray XT-like)"
		coh = memsim.Coherent
	}
	world := runtime.NewWorld(runtime.Config{
		Ranks: 2,
		Coherence: func(rank int) memsim.Coherence {
			if rank == 0 {
				return coh
			}
			return memsim.Coherent
		},
	})
	defer world.Close()

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		if p.Rank() == 0 {
			tm, region := s.Expose(64)
			p.WriteLocal(region, 0, []byte{11})
			// Prime the scalar cache.
			before := p.ReadLocal(region, 0, 1)[0]
			p.Send(1, 0, tm.Encode())
			p.Recv(1, 1) // rank 1 finished its put + complete

			stale := p.ReadLocal(region, 0, 1)[0]
			lines := p.Mem().Fence()
			fresh := p.ReadLocal(region, 0, 1)[0]

			fmt.Printf("%s target:\n", label)
			fmt.Printf("  before put: %d\n", before)
			fmt.Printf("  after put, before fence: %d  (stale reads counted: %d)\n",
				stale, p.Mem().StaleReads.Value())
			fmt.Printf("  after fence (%d lines invalidated): %d\n\n", lines, fresh)
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			log.Fatal(err)
		}
		src := p.Alloc(1)
		p.WriteLocal(src, 0, []byte{42})
		if _, err := s.Put(src, 1, rma.Byte, tm, 0, rma.WithBlocking()); err != nil {
			log.Fatal(err)
		}
		if err := s.Complete(0); err != nil {
			log.Fatal(err)
		}
		p.Send(0, 1, nil)
	})
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	run(true)
	run(false)
}
