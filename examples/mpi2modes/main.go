// MPI-2 synchronization modes: Figure 1 of the paper, runnable.
//
// The paper's Figure 1 shows the three synchronization methods of MPI-2
// one-sided communication. This example executes all three against the
// mpi2rma baseline — (a) fence, (b) post-start-complete-wait, (c)
// lock-unlock — and then performs the same data movement with a single
// strawman blocking put, printing the virtual-time cost of each so the
// "synchronization methods add overhead to the basic data transfer"
// observation (Section I) is visible.
//
// Run with:
//
//	go run ./examples/mpi2modes
package main

import (
	"fmt"
	"log"

	"mpi3rma/internal/mpi2rma"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

const payload = 256

func main() {
	// Three ranks, as in Figure 1b: ranks 1 and 2 access rank 0.
	world := runtime.NewWorld(runtime.Config{Ranks: 3})
	defer world.Close()

	err := world.Run(func(p *runtime.Proc) {
		r2 := mpi2rma.Attach(p)
		s := rma.Open(p)
		comm := p.Comm()
		me := p.Rank()
		region := p.Alloc(payload)
		win, err := r2.WinCreate(comm, region)
		if err != nil {
			log.Fatal(err)
		}
		src := p.Alloc(payload)
		report := func(mode string, start vtime.Time) {
			if me == 1 {
				fmt.Printf("%-28s %8d ns of virtual time\n", mode, p.Now()-start)
			}
		}

		// --- Figure 1a: fence synchronization -------------------------
		comm.Barrier()
		start := p.Now()
		if err := win.Fence(); err != nil {
			log.Fatal(err)
		}
		if me != 0 {
			if err := win.Put(src, payload, rma.Byte, 0, 0, payload, rma.Byte); err != nil {
				log.Fatal(err)
			}
		}
		if err := win.Fence(); err != nil {
			log.Fatal(err)
		}
		report("fence epoch", start)

		// --- Figure 1b: post-start-complete-wait ----------------------
		comm.Barrier()
		start = p.Now()
		if me == 0 {
			if err := win.Post([]int{1, 2}); err != nil {
				log.Fatal(err)
			}
			if err := win.Wait(); err != nil {
				log.Fatal(err)
			}
		} else {
			if err := win.Start([]int{0}); err != nil {
				log.Fatal(err)
			}
			if err := win.Put(src, payload, rma.Byte, 0, 0, payload, rma.Byte); err != nil {
				log.Fatal(err)
			}
			if err := win.Complete(); err != nil {
				log.Fatal(err)
			}
		}
		report("post-start-complete-wait", start)

		// --- Figure 1c: lock-unlock (passive target) ------------------
		comm.Barrier()
		start = p.Now()
		if me != 0 {
			if err := win.Lock(mpi2rma.LockShared, 0); err != nil {
				log.Fatal(err)
			}
			if err := win.Put(src, payload, rma.Byte, 0, 0, payload, rma.Byte); err != nil {
				log.Fatal(err)
			}
			if err := win.Unlock(0); err != nil {
				log.Fatal(err)
			}
		}
		comm.Barrier()
		report("lock-unlock", start)

		// --- The strawman alternative: one blocking put ----------------
		// Same bytes moved, no epochs anywhere; Complete only when the
		// origin actually needs remote completion.
		tms, err := s.Exchange(s.ExposeRegion(region))
		if err != nil {
			log.Fatal(err)
		}
		comm.Barrier()
		start = p.Now()
		if me != 0 {
			if _, err := s.Put(src, payload, rma.Byte, tms[0], 0, rma.WithBlocking()); err != nil {
				log.Fatal(err)
			}
		}
		report("strawman blocking put", start)
		comm.Barrier()
		start = p.Now()
		if me != 0 {
			if _, err := s.Put(src, payload, rma.Byte, tms[0], 0, rma.WithBlocking()); err != nil {
				log.Fatal(err)
			}
			if err := s.Complete(0); err != nil {
				log.Fatal(err)
			}
		}
		report("strawman put + complete", start)

		comm.Barrier()
		if err := win.Free(); err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
