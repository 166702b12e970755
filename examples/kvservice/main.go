// kvservice: the RMA-backed data-structure service layer end to end
// (DESIGN.md §15) — a key/value front-end and a task queue served
// entirely by one-sided operations.
//
// Three server ranks expose the stripes of one global open-addressing
// hash table and then DO NOTHING — after dht.Open returns they sit at
// the final barrier while their NICs serve every request. Three client
// ranks run a closed loop against the table (put, get, compare-and-swap
// on a shared counter key) and hand work to each other through the
// global MPMC queue: rank 3 and 4 produce task descriptors, rank 5
// consumes and "executes" them. Every byte of coordination — bucket
// locks, sequence words, tickets — lives in exposed memory and moves by
// Put/Get/FetchAdd/CompareSwap. The run exits 1 unless every task is
// dequeued exactly once and the counter holds every CAS increment.
//
// Run with:
//
//	go run ./examples/kvservice
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"mpi3rma/dht"
	"mpi3rma/dht/queue"
	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

const (
	servers = 3
	clients = 3
	ranks   = servers + clients

	keys     = 96   // preloaded key space
	requests = 400  // closed-loop requests per client
	tasks    = 50   // queue tasks per producer
	counter  = keys // dedicated CAS counter key, outside the put/get range
)

func value(key, version int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(key)*2_654_435_761+uint64(version))
	return b
}

func main() {
	world := runtime.NewWorld(runtime.Config{Ranks: ranks, Seed: 42})
	defer world.Close()

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		m, err := dht.Open(s,
			dht.WithServers(servers),
			dht.WithBuckets(64),
			dht.WithValueSize(8))
		if err != nil {
			panic(err)
		}
		q, err := queue.New(s, 0, 8, 16)
		if err != nil {
			panic(err)
		}
		me := p.Rank()

		// Servers are done: their stripes are exposed, their NICs serve.
		if me < servers {
			p.Barrier() // clients preloading
			p.Barrier() // clients storming
			return
		}

		// Preload: each client owns a third of the key space.
		c := me - servers
		for k := c; k < keys; k += clients {
			if err := m.Put(int64(k), value(k, 0)); err != nil {
				panic(err)
			}
		}
		if c == 0 {
			if err := m.Put(counter, make([]byte, 8)); err != nil {
				panic(err)
			}
		}
		p.Barrier()

		// Closed loop: read-mostly traffic plus a contended CAS counter —
		// every client increments it via read-modify-write until it has
		// won `requests/10` races.
		start := p.Now()
		wins := 0
		for i := 0; i < requests; i++ {
			k := int64((c*31 + i*7) % keys)
			switch {
			case i%10 == 9 && wins < requests/10:
				for {
					cur, ok, err := m.Get(counter)
					if err != nil {
						panic(err)
					}
					if !ok {
						panic("counter key vanished")
					}
					n := binary.LittleEndian.Uint64(cur)
					next := make([]byte, 8)
					binary.LittleEndian.PutUint64(next, n+1)
					swapped, err := m.CAS(counter, cur, next)
					if err != nil {
						panic(err)
					}
					if swapped {
						wins++
						break
					}
				}
			case i%3 == 0:
				if err := m.Put(k, value(int(k), i)); err != nil {
					panic(err)
				}
			default:
				if _, _, err := m.Get(k); err != nil {
					panic(err)
				}
			}
		}

		// Task handoff: 3 and 4 produce, 5 consumes and checks.
		task := make([]byte, 16)
		switch me {
		case servers, servers + 1:
			for i := 0; i < tasks; i++ {
				binary.LittleEndian.PutUint64(task, uint64(me))
				binary.LittleEndian.PutUint64(task[8:], uint64(i))
				if err := q.Enqueue(task); err != nil {
					panic(err)
				}
			}
		case servers + 2:
			got := map[[2]uint64]int{} // (producer, i) -> times dequeued
			for i := 0; i < 2*tasks; i++ {
				t, err := q.Dequeue()
				if err != nil {
					panic(err)
				}
				got[[2]uint64{binary.LittleEndian.Uint64(t), binary.LittleEndian.Uint64(t[8:])}]++
			}
			for _, prod := range []uint64{servers, servers + 1} {
				for i := uint64(0); i < tasks; i++ {
					if n := got[[2]uint64{prod, i}]; n != 1 {
						panic(fmt.Sprintf("task (%d, %d) dequeued %d times, want once", prod, i, n))
					}
				}
			}
			fmt.Printf("rank %d drained %d tasks from producers %v, each exactly once\n",
				me, 2*tasks, []int{servers, servers + 1})
		}

		elapsed := p.Now() - start
		st := m.Stats()
		lat := m.Latency()
		fmt.Printf("rank %d: %d requests in %.2fms vtime (%d CAS wins), p50<=%dns p99<=%dns, %d lock retries\n",
			me, requests, float64(elapsed)/1e6, wins, lat.Quantile(0.5), lat.Quantile(0.99), st.LockRetries)
		p.Barrier()

		// Read-your-writes proof across the stripes, counter included.
		cur, ok, err := m.Get(counter)
		if err != nil || !ok {
			panic(fmt.Sprintf("counter readback: ok=%v err=%v", ok, err))
		}
		want := uint64(clients * (requests / 10))
		if got := binary.LittleEndian.Uint64(cur); got != want {
			panic(fmt.Sprintf("shared counter holds %d CAS increments, want %d", got, want))
		}
		if me == servers {
			fmt.Printf("shared counter: %d CAS increments, as expected\n", want)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
