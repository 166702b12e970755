package rma_test

import (
	gort "runtime"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/rma"
)

// facadeVec is the benchmark's strided shape.
var facadeVec = rma.Vector(8, 1, 2, rma.Int64)

// facadeBytes sizes the target exposure and the origin's buffers: a 1 KiB
// put, and 8 instances of facadeVec (960 bytes).
const facadeBytes = 1024

// facadeCtx is what a row of the facade's allocation table works with, on
// the origin rank.
type facadeCtx struct {
	t         *testing.T
	s, target *rma.Session
	tm        rma.TargetMem
	src, dst  rma.Region
	issued    int64 // operations issued so far; settle waits for the target to have applied them
	notified  int64 // of those, the ones that come back as a notification
}

// settle returns once the target has applied everything issued and the
// origin has handled every notification owed, so both ranks' handler
// allocations fall inside the measurement that issued the operation.
func (c *facadeCtx) settle() {
	c.issued++
	for c.target.Engine().OpsApplied.Value() < c.issued || c.s.Engine().Notifies.Value() < c.notified {
		gort.Gosched()
	}
}

func (c *facadeCtx) put(opts ...rma.OpOption) {
	req, err := c.s.Put(c.src, 1, rma.Int64, c.tm, 0, opts...)
	if err != nil {
		c.t.Fatalf("put: %v", err)
	}
	req.Wait()
	c.settle()
}

func (c *facadeCtx) putNotify() {
	c.notified++
	c.put(rma.WithNotify())
}

// facadeAllocs is internal/core's allocation table (allocTable there, and
// DESIGN.md §5) asserted again where users call: the option list of a
// transfer folds into its attributes without leaving the caller's stack, so
// every primitive costs through the facade exactly what it costs the
// engine. `make allocs` prints both.
var facadeAllocs = []struct {
	name string
	mech serializer.Mechanism
	want float64
	op   func(c *facadeCtx)
}{
	{"put", serializer.MechThread, 1, func(c *facadeCtx) { c.put() }},
	{"blocking put", serializer.MechThread, 0, func(c *facadeCtx) { c.put(rma.WithBlocking()) }},
	{"put 1 KiB", serializer.MechThread, 1, func(c *facadeCtx) {
		req, err := c.s.Put(c.src, facadeBytes, rma.Byte, c.tm, 0)
		if err != nil {
			c.t.Fatalf("put: %v", err)
		}
		req.Wait()
		c.settle()
	}},
	{"put notify", serializer.MechThread, 1, func(c *facadeCtx) { c.putNotify() }},
	{"put notify + complete", serializer.MechThread, 1, func(c *facadeCtx) {
		c.putNotify()
		if err := c.s.Complete(0); err != nil {
			c.t.Fatalf("complete: %v", err)
		}
	}},
	{"put remote-complete", serializer.MechThread, 0, func(c *facadeCtx) { c.put(rma.WithRemoteComplete(), rma.WithBlocking()) }},
	{"put atomic (thread)", serializer.MechThread, 1, func(c *facadeCtx) { c.put(rma.WithAtomic()) }},
	{"put atomic (coarse lock)", serializer.MechCoarseLock, 4, func(c *facadeCtx) { c.put(rma.WithAtomic()) }},
	{"put 8 x vector(8,1,2,int64)", serializer.MechThread, 1, func(c *facadeCtx) {
		req, err := c.s.Put(c.src, 8, facadeVec, c.tm, 0)
		if err != nil {
			c.t.Fatalf("put: %v", err)
		}
		req.Wait()
		c.settle()
	}},
	{"get 8 x vector(8,1,2,int64)", serializer.MechThread, 0, func(c *facadeCtx) {
		if _, err := c.s.Get(c.dst, 8, facadeVec, c.tm, 0, rma.WithBlocking()); err != nil {
			c.t.Fatalf("get: %v", err)
		}
		c.settle()
	}},
	{"fetch word", serializer.MechThread, 0, func(c *facadeCtx) {
		if _, err := c.s.FetchWord(c.tm, 0); err != nil {
			c.t.Fatalf("fetch word: %v", err)
		}
		c.settle()
	}},
	{"compare-and-swap", serializer.MechThread, 0, func(c *facadeCtx) {
		if _, err := c.s.CompareSwap(c.tm, 0, 0, 1); err != nil {
			c.t.Fatalf("compare-and-swap: %v", err)
		}
		c.settle()
	}},
	{"fetch-and-add", serializer.MechThread, 0, func(c *facadeCtx) {
		if _, err := c.s.FetchAdd(c.tm, 0, 1); err != nil {
			c.t.Fatalf("fetch-and-add: %v", err)
		}
		c.settle()
	}},
}

// TestFacadeAllocsPerPrimitive asserts every row of facadeAllocs with ==.
func TestFacadeAllocsPerPrimitive(t *testing.T) {
	for _, mech := range []serializer.Mechanism{serializer.MechThread, serializer.MechCoarseLock} {
		var target *rma.Session
		world := newWorld(t, runtime.Config{Ranks: 2})
		err := world.Run(func(p *runtime.Proc) {
			s := rma.Open(p, rma.WithAtomicity(mech))
			if p.Rank() == 0 {
				target = s
				tm, _ := s.Expose(facadeBytes)
				p.Send(1, 0, tm.Encode())
				p.Barrier() // origin done measuring
				return
			}
			enc, _ := p.Recv(0, 0)
			tm, err := rma.DecodeTargetMem(enc)
			if err != nil {
				t.Fatalf("decode descriptor: %v", err)
			}
			c := &facadeCtx{t: t, s: s, target: target, tm: tm, src: p.Alloc(facadeBytes), dst: p.Alloc(facadeBytes)}
			for _, row := range facadeAllocs {
				if row.mech != mech {
					continue
				}
				run := func() { row.op(c) }
				run() // warm free lists and lazy state before measuring
				got := testing.AllocsPerRun(50, run)
				t.Logf("%-30s %2.0f allocs/op", row.name, got)
				if got != row.want {
					t.Errorf("%s costs %v allocs/op through the facade, want exactly %v", row.name, got, row.want)
				}
			}
			p.Barrier()
		})
		world.Close()
		if err != nil {
			t.Fatalf("world: %v", err)
		}
	}
}
