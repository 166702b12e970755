package queue

import (
	"bytes"
	"errors"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

func newWorld(t *testing.T, cfg runtime.Config) *runtime.World {
	t.Helper()
	w := runtime.NewWorld(cfg)
	t.Cleanup(func() {
		if n := rma.LostRequests(w); n != 0 {
			t.Errorf("%d nonblocking requests lost: never observed, never completed", n)
		}
		w.Close()
	})
	return w
}

// payload stamps a producer rank and an item number into a fixed-size
// slot so the receiving side can prove provenance and completeness.
func payload(size, rank, item int) []byte {
	b := make([]byte, size)
	b[0] = byte(rank)
	b[1] = byte(item)
	b[2] = byte(item >> 8)
	for i := 3; i < size; i++ {
		b[i] = byte(rank + item + i)
	}
	return b
}

// TestQueueSPSC: one producer, one consumer, more items than slots. The
// consumer must receive every item in strict FIFO order — and, with the
// queue wrapping several laps, slot reuse must never alias items.
func TestQueueSPSC(t *testing.T) {
	const items, slots, slotSize = 40, 4, 16
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 13})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		q, err := New(s, 0, slots, slotSize)
		if err != nil {
			t.Errorf("new: %v", err)
			panic("queue: new failed")
		}
		switch p.Rank() {
		case 1: // producer
			for i := 0; i < items; i++ {
				if err := q.Enqueue(payload(slotSize, 1, i)); err != nil {
					t.Errorf("enqueue %d: %v", i, err)
					panic("queue: enqueue failed")
				}
			}
			if st := q.Stats(); st.Enqueues != items {
				t.Errorf("producer stats: %+v", st)
			}
		case 0: // consumer
			for i := 0; i < items; i++ {
				got, err := q.Dequeue()
				if err != nil {
					t.Errorf("dequeue %d: %v", i, err)
					panic("queue: dequeue failed")
				}
				if !bytes.Equal(got, payload(slotSize, 1, i)) {
					t.Errorf("item %d out of order or torn: %x", i, got)
				}
			}
			if st := q.Stats(); st.Dequeues != items {
				t.Errorf("consumer stats: %+v", st)
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQueueMPMC: two producers and two consumers over a queue owned by a
// rank that runs no queue code after New. Every produced item must be
// consumed exactly once (multiset equality), with a slot count small
// enough to force wraps and producer backpressure.
func TestQueueMPMC(t *testing.T) {
	const (
		ranks    = 5 // rank 0 owns the queue and idles; 1,2 produce; 3,4 consume
		perProd  = 30
		slots    = 4
		slotSize = 8
	)
	consumed := make([][][]byte, ranks)
	w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 17})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		q, err := New(s, 0, slots, slotSize)
		if err != nil {
			t.Errorf("new: %v", err)
			panic("queue: new failed")
		}
		me := p.Rank()
		switch me {
		case 1, 2:
			for i := 0; i < perProd; i++ {
				if err := q.Enqueue(payload(slotSize, me, i)); err != nil {
					t.Errorf("rank %d enqueue %d: %v", me, i, err)
					panic("queue: enqueue failed")
				}
			}
		case 3, 4:
			for i := 0; i < perProd; i++ {
				got, err := q.Dequeue()
				if err != nil {
					t.Errorf("rank %d dequeue %d: %v", me, i, err)
					panic("queue: dequeue failed")
				}
				consumed[me] = append(consumed[me], got)
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, prod := range []int{1, 2} {
		for i := 0; i < perProd; i++ {
			want[string(payload(slotSize, prod, i))]++
		}
	}
	got := make(map[string]int)
	total := 0
	for _, items := range consumed {
		for _, it := range items {
			got[string(it)]++
			total++
		}
	}
	if total != 2*perProd {
		t.Fatalf("consumed %d items, want %d", total, 2*perProd)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("item %x consumed %d times, want %d", k, got[k], n)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("phantom item %x consumed", k)
		}
	}
}

// TestQueueRMAOpsPerHandoff pins the protocol's remote cost at the owner,
// which runs no queue code: six applied operations per handoff (producer
// FetchAdd, free-slot poll and publishing put; consumer FetchAdd, polling
// Get and freeing put) plus one per failed poll.
func TestQueueRMAOpsPerHandoff(t *testing.T) {
	const perProd, slots, slotSize = 24, 4, 16
	for _, tc := range []struct {
		name                 string
		producers, consumers int
	}{
		{"spsc", 1, 1},
		{"mpmc 2x2", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ranks := 1 + tc.producers + tc.consumers // rank 0 owns and idles
			items := tc.producers * perProd
			st := make([]Stats, ranks)
			var applied int64
			w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 29})
			err := w.Run(func(p *runtime.Proc) {
				s := rma.Open(p)
				q, err := New(s, 0, slots, slotSize)
				if err != nil {
					t.Errorf("new: %v", err)
					panic("queue: new failed")
				}
				before := s.Engine().OpsApplied.Value()
				p.Barrier()
				me := p.Rank()
				switch {
				case me == 0:
				case me <= tc.producers:
					for i := 0; i < perProd; i++ {
						if err := q.Enqueue(payload(slotSize, me, i)); err != nil {
							t.Errorf("rank %d enqueue %d: %v", me, i, err)
							panic("queue: enqueue failed")
						}
					}
				default:
					for i := 0; i < items/tc.consumers; i++ {
						if _, err := q.Dequeue(); err != nil {
							t.Errorf("rank %d dequeue %d: %v", me, i, err)
							panic("queue: dequeue failed")
						}
					}
				}
				st[me] = q.Stats()
				p.Barrier() // every handoff completed, so counted at the owner
				if me == 0 {
					applied = s.Engine().OpsApplied.Value() - before
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(6 * items)
			var dequeues int64
			for _, r := range st {
				want += r.ProducerPolls + r.ConsumerPolls
				dequeues += r.Dequeues
			}
			if dequeues != int64(items) {
				t.Fatalf("dequeued %d items, want %d", dequeues, items)
			}
			if applied != want {
				t.Errorf("owner applied %d operations for %d handoffs, want %d (stats %+v)", applied, items, want, st)
			}
		})
	}
}

// TestQueueValidation: bad geometry and payload sizes are rejected with
// the rma sentinels.
func TestQueueValidation(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 23})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		if _, err := New(s, 2, 4, 8); !errors.Is(err, rma.ErrBadHandle) {
			t.Errorf("owner out of range: got %v, want ErrBadHandle", err)
		}
		if _, err := New(s, 0, 0, 8); !errors.Is(err, rma.ErrBadHandle) {
			t.Errorf("zero slots: got %v, want ErrBadHandle", err)
		}
		q, err := New(s, 0, 4, 8)
		if err != nil {
			t.Errorf("new: %v", err)
			panic("queue: new failed")
		}
		if err := q.Enqueue(make([]byte, 7)); !errors.Is(err, rma.ErrType) {
			t.Errorf("short payload: got %v, want ErrType", err)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
