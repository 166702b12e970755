package core

import (
	gort "runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
)

// TestAllocsTwoOriginOverlap pins the frame spares' capacity: two origins
// each issue 100 blocking ordered puts to one word and then Complete, at
// the same time, as fig2_attrs's ordering phase does. The origins meet at
// the target's delivery token, so one origin's frames wait in the target's
// backlog while the other's are delivered, and up to a whole round of an
// origin's frames are out at once. How many are out at the worst moment
// varies with host scheduling, and a short warm-up need not meet it, so
// the warm-up starts by filling every engine's spares, as a long run
// does. Past it, a round allocates nothing and no engine allocates
// another frame: the spares hold every frame out in a round. Allocations
// are counted over the whole process with runtime.ReadMemStats rather
// than testing.AllocsPerRun, which would pin GOMAXPROCS to 1 and keep the
// origins from overlapping.
func TestAllocsTwoOriginOverlap(t *testing.T) {
	const (
		origins = 2
		puts    = 100
		warmup  = 20
		rounds  = 50
	)
	w := newWorld(t, runtime.Config{Ranks: origins + 1})
	var started, finished atomic.Int64 // rounds rank 1 started; rounds rank 2 finished
	var stop atomic.Bool
	frames := func() (n int64) {
		for r := 0; r <= origins; r++ {
			n += Attached(w.Proc(r)).FramesAllocated.Value()
		}
		return n
	}
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		for i := 0; i < spareCap; i++ {
			e.spares.put(&frame{home: e})
		}
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			p.Barrier() // origins done measuring
			return
		}
		src := p.Alloc(8)
		round := func() {
			for i := 0; i < puts; i++ {
				if _, err := e.Put(src, 1, datatype.Int64, tm, 0, 1, datatype.Int64, 0, comm, AttrOrdering|AttrBlocking); err != nil {
					t.Errorf("rank %d put: %v", p.Rank(), err)
					return
				}
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Errorf("rank %d complete: %v", p.Rank(), err)
			}
		}
		if p.Rank() == 2 {
			for done := int64(0); !stop.Load(); {
				if started.Load() > done {
					round()
					done++
					finished.Store(done)
				} else {
					pollYield()
				}
			}
			p.Barrier()
			return
		}
		overlap := func() {
			n := started.Add(1)
			round()
			for finished.Load() < n {
				pollYield()
			}
		}
		for i := 0; i < warmup; i++ {
			overlap()
		}
		warm := frames()
		var m0, m1 gort.MemStats
		gort.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			overlap()
		}
		gort.ReadMemStats(&m1)
		stop.Store(true)
		got := (m1.Mallocs - m0.Mallocs) / rounds
		t.Logf("%-30s %2d allocs/op", "2 origins x (100 ordered puts + complete)", got)
		if got != 0 {
			t.Errorf("a round of two origins' overlapping ordered puts costs %d allocs, want exactly 0", got)
		}
		if n := frames() - warm; n != 0 {
			t.Errorf("%d frames allocated after warm-up, want 0: the spares cannot hold every frame out in a round", n)
		}
		p.Barrier()
	})
}

// TestAllocsParkedProbe pins a parked completion probe at no allocation:
// the target keeps it by value on its applied watermark. The target runs
// the progress serializer and drains its deferred applies only once the
// origin's probe has parked, so the probe always parks: an atomic blocking
// put is done at its send, Complete probes (no report comes back), and the
// drain's apply answers the probe.
func TestAllocsParkedProbe(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	var stop atomic.Bool
	var rounds, drains atomic.Int64
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: serializer.MechProgress})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			parked := func() bool {
				e.mu.Lock()
				defer e.mu.Unlock()
				return len(e.applied[1].probes) > 0
			}
			for !stop.Load() {
				if parked() {
					drains.Add(1)
					e.Progress()
				}
				pollYield()
			}
			p.Barrier()
			return
		}
		src := p.Alloc(8)
		run := func() {
			rounds.Add(1)
			if _, err := e.Put(src, 1, datatype.Int64, tm, 0, 1, datatype.Int64, 0, comm, AttrAtomic|AttrBlocking); err != nil {
				t.Errorf("put: %v", err)
				panic("allocs: put failed")
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Errorf("complete: %v", err)
				panic("allocs: complete failed")
			}
		}
		run() // warm the watermark's probe list and the progress queue
		got := testing.AllocsPerRun(50, run)
		stop.Store(true)
		t.Logf("%-30s %2.0f allocs/op", "put + complete, probe parked", got)
		if got != 0 {
			t.Errorf("a put whose completion probe parks costs %v allocs, want exactly 0", got)
		}
		if d, r := drains.Load(), rounds.Load(); d != r {
			t.Errorf("the target drained %d times for %d rounds: some probe did not park", d, r)
		}
		p.Barrier()
	})
}

// TestAllocsBatchedProgress pins an aggregate of atomic puts deferred to
// the progress serializer: each member's task carries its record as the
// serializer's Op, so queueing it builds no closure, and a ring of 8
// costs what it costs under the thread serializer (allocTable's batched
// row). The target drains its queue in a loop while the origin measures.
func TestAllocsBatchedProgress(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	var stop atomic.Bool
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: serializer.MechProgress, BatchOps: 8})
		comm := p.Comm()
		tm := shipTM(p, e, 64)
		if p.Rank() == 0 {
			for !stop.Load() {
				e.Progress()
				pollYield()
			}
			p.Barrier()
			return
		}
		src := p.Alloc(8)
		run := func() {
			for i := 0; i < 8; i++ {
				if _, err := e.Put(src, 1, datatype.Int64, tm, 8*i, 1, datatype.Int64, 0, comm, AttrAtomic); err != nil {
					t.Errorf("batched put %d: %v", i, err)
					panic("allocs: put failed")
				}
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Errorf("complete: %v", err)
				panic("allocs: complete failed")
			}
		}
		run() // warm the ring, the progress queue and the watermark
		got := testing.AllocsPerRun(50, run)
		stop.Store(true)
		t.Logf("%-30s %2.0f allocs/op", "8 atomic puts batched, progress", got)
		if got != 11 {
			t.Errorf("8 batched atomic puts under the progress serializer cost %v allocs, want exactly 11", got)
		}
		p.Barrier()
	})
}
