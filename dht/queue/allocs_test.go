package queue

import (
	"bytes"
	"errors"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// TestQueueAllocsPerHandoff pins what one handoff allocates in the steady
// state, the client and the queue's owner together: nothing. Both
// publishing puts take no request (blocking, done at their send), and
// Dequeue returns a slice of the handle's own buffer. One rank enqueues a
// task and dequeues it again, so the ring wraps many laps while measured.
// `make allocs` prints the row.
func TestQueueAllocsPerHandoff(t *testing.T) {
	const slots, slotSize = 4, 16
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 53})
	err := w.Run(func(p *runtime.Proc) {
		q, err := New(rma.Open(p), 0, slots, slotSize)
		if err != nil {
			t.Errorf("new: %v", err)
			panic("queue: new failed")
		}
		if p.Rank() == 0 {
			p.Barrier() // the client is done measuring
			return
		}
		task := payload(slotSize, 1, 7)
		var failed bool
		got := testing.AllocsPerRun(50, func() {
			if err := q.Enqueue(task); err != nil {
				failed = true
				return
			}
			item, err := q.Dequeue()
			failed = failed || err != nil || !bytes.Equal(item, task)
		})
		t.Logf("%-30s %2.0f allocs/op", "queue enqueue + dequeue", got)
		if failed {
			t.Error("a handoff failed or handed over the wrong item")
		}
		if got != 0 {
			t.Errorf("enqueue + dequeue costs %v allocs/op, want exactly 0", got)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQueueItemLivesUntilNextCall pins the lifetime rule of Dequeue's
// item: it is a slice of the handle's own buffer, so the handle's next
// Dequeue overwrites it. A caller that keeps an item copies it.
func TestQueueItemLivesUntilNextCall(t *testing.T) {
	const slots, slotSize = 4, 16
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 59})
	err := w.Run(func(p *runtime.Proc) {
		q, err := New(rma.Open(p), 0, slots, slotSize)
		if err != nil {
			t.Errorf("new: %v", err)
			panic("queue: new failed")
		}
		if p.Rank() == 1 {
			x, y := payload(slotSize, 1, 1), payload(slotSize, 1, 2)
			if err := errors.Join(q.Enqueue(x), q.Enqueue(y)); err != nil {
				t.Errorf("enqueue: %v", err)
				panic("queue: enqueue failed")
			}
			first, err := q.Dequeue()
			kept := bytes.Clone(first)
			second, err2 := q.Dequeue()
			if err := errors.Join(err, err2); err != nil {
				t.Errorf("dequeue: %v", err)
				panic("queue: dequeue failed")
			}
			if !bytes.Equal(kept, x) {
				t.Errorf("first item %x, want %x", kept, x)
			}
			if !bytes.Equal(first, y) || &first[0] != &second[0] {
				t.Errorf("after the next dequeue the first item reads %x, want it overwritten with %x", first, y)
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
