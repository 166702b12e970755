//go:build lockcount

package core

import (
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/lockrank"
	"mpi3rma/internal/runtime"
)

// lockTable is the committed table of mutex acquisitions per operation,
// origin and target together, that `make locks` prints: every Lock and
// TryLock of a lockrank.Plain or ranked mutex — the engine's, the NIC's
// delivery token and backlog, simnet's endpoint, memsim's memory, the
// request's and the bells' — counted by the lockcount build. parent is the
// count before the delivery token became the target's lock (DESIGN.md §5),
// kept as the table's first column; want is today's.
var lockTable = []struct {
	name         string
	opts         Options
	parent, want int64
	op           func(c *pinCtx)
}{
	{"blocking put", pinThread, 14, 6, func(c *pinCtx) { c.blockingPut(AttrBlocking) }},
	{"blocking put + complete", pinThread, 29, 20, func(c *pinCtx) {
		c.blockingPut(AttrBlocking)
		if err := c.e.Complete(c.comm, 0); err != nil {
			c.t.Fatalf("complete: %v", err)
		}
	}},
	{"blocking get", pinThread, 20, 13, func(c *pinCtx) {
		if _, err := c.e.Get(c.dst, 1, datatype.Int64, c.tm, 0, 1, datatype.Int64, 0, c.comm, AttrBlocking); err != nil {
			c.t.Fatalf("get: %v", err)
		}
		c.settle()
	}},
	{"fetch-and-add", pinThread, 19, 12, func(c *pinCtx) {
		if _, err := c.e.FetchAdd(c.tm, 0, 1, 0, c.comm, 0); err != nil {
			c.t.Fatalf("fetch-and-add: %v", err)
		}
		c.settle()
	}},
	{"blocking put atomic (coarse lock)", pinCoarse, 23, 16, func(c *pinCtx) { c.blockingPut(AttrAtomic | AttrBlocking) }},
	{"8 puts batched (BatchOps 8)", pinBatched, 130, 63, func(c *pinCtx) {
		for i := 0; i < 8; i++ {
			if _, err := c.e.Put(c.src, 1, datatype.Int64, c.tm, 8*i, 1, datatype.Int64, 0, c.comm, 0); err != nil {
				c.t.Fatalf("batched put %d: %v", i, err)
			}
		}
		c.e.Flush()
		c.issued += 7
		c.notified++ // the aggregate's one notification
		c.settle()
		if err := c.e.Complete(c.comm, 0); err != nil {
			c.t.Fatalf("complete: %v", err)
		}
	}},
}

// blockingPut issues one blocking 8-byte put and waits for the target to
// have applied it; the call returns no request worth waiting on.
func (c *pinCtx) blockingPut(attrs Attr) {
	if _, err := c.e.Put(c.src, 1, datatype.Int64, c.tm, 0, 1, datatype.Int64, 0, c.comm, attrs); err != nil {
		c.t.Fatalf("put: %v", err)
	}
	c.settle()
}

// TestLocksPerOp pins lockTable on a two-rank world: the origin runs each
// row while the target is parked in a receive that only the origin's last
// message ends, so every acquisition the process makes meanwhile belongs
// to the row — the origin's issue, the target's handlers (run inline on
// the origin's goroutine while the target's token is free) and the
// replies'. A barrier there would not do: the target's half of it sends
// the origin a message, whose delivery lands in whichever row is running.
func TestLocksPerOp(t *testing.T) {
	for _, opts := range []Options{pinThread, pinCoarse, pinBatched} {
		var target *Engine
		w := newWorld(t, runtime.Config{Ranks: 2})
		runBounded(t, w, time.Minute, func(p *runtime.Proc) {
			e := Attach(p, opts)
			if p.Rank() == 0 {
				target = e
				tm, _ := e.ExposeNew(pinBytes)
				p.Send(1, 0, tm.Encode())
				p.Barrier()  // target attached
				p.Recv(1, 1) // origin done measuring
				return
			}
			enc, _ := p.Recv(0, 0)
			tm, _ := DecodeTargetMem(enc)
			c := &pinCtx{t: t, e: e, comm: p.Comm(), tm: tm,
				src: p.Alloc(pinBytes), dst: p.Alloc(pinBytes)}
			p.Barrier()
			c.target = target
			// The target parks right after the barrier: wait until the
			// process has taken no lock for a few milliseconds.
			for quiet, n := 0, lockrank.Acquisitions(); quiet < 5; {
				time.Sleep(time.Millisecond)
				if m := lockrank.Acquisitions(); m == n {
					quiet++
				} else {
					quiet, n = 0, m
				}
			}
			for _, row := range lockTable {
				if row.opts != opts {
					continue
				}
				// Warm lazy state.
				for range 50 {
					row.op(c)
				}
				const runs = 100
				before := lockrank.Acquisitions()
				for range runs {
					row.op(c)
				}
				n := lockrank.Acquisitions() - before
				got := n / runs
				t.Logf("%-34s %3d -> %3d locks/op", row.name, row.parent, got)
				if n%runs != 0 || got != row.want {
					t.Errorf("%s takes %d locks over %d runs, want exactly %d per run", row.name, n, runs, row.want)
				}
			}
			p.Send(0, 1, nil)
		})
	}
}
