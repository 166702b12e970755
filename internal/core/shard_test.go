package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// runOverlapWorkload drives one origin through a deterministic sequence of
// overlapping and spanning puts (issue order fixes the final bytes) and
// returns the target's final exposure. topts selects the target engine;
// a sharded one must route exactly the spanning and the ordered put
// through the designated shard.
func runOverlapWorkload(t *testing.T, topts Options) []byte {
	t.Helper()
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 11})
	const size = 64
	final := make([]byte, size)
	var target *Engine
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = topts
		}
		e := Attach(p, opts)
		comm := p.Comm()
		tm := shipTM(p, e, size)
		if p.Rank() == 0 {
			target = e
			p.Barrier()
			exp := e.lookupExposure(tm.Handle)
			copy(final, p.Mem().Snapshot(exp.region.Offset, size))
			return
		}
		scratch := p.Alloc(32)
		put := func(disp, n int, fill byte, attrs Attr) {
			p.WriteLocal(scratch, 0, bytes.Repeat([]byte{fill}, n))
			if _, err := e.Put(scratch, n, datatype.Byte, tm, disp, n, datatype.Byte, 0, comm, attrs); err != nil {
				t.Errorf("put disp=%d: %v", disp, err)
				panic("overlap: put failed")
			}
		}
		// With 4 shards over 64 bytes (stride 16) this hits: same-shard
		// overlap (FIFO), a spanning designated op, a shard-1 op overlapping
		// it, and an ordered designated op.
		put(0, 8, 0x11, AttrNone)
		put(4, 8, 0x22, AttrNone)   // overlaps the first within shard 0
		put(12, 16, 0x33, AttrNone) // spans shards 0-1: designated
		put(20, 8, 0x44, AttrNone)  // shard 1, over the spanning put's tail
		put(40, 8, 0x55, AttrOrdering)
		put(40, 4, 0x66, AttrNone) // overlaps the ordered op's range
		if err := e.Complete(comm); err != nil {
			t.Errorf("complete: %v", err)
			panic("overlap: complete failed")
		}
		p.Barrier()
	})
	want := int64(0)
	if topts.ApplyShards > 1 {
		want = 2
	}
	if got := target.ShardDesignated.Value(); got != want {
		t.Errorf("%+v: %d designated routes, want %d", topts, got, want)
	}
	return final
}

// TestRouteShard pins routing as a pure function of the access over a
// 4-shard, 64-byte exposure (stride 16).
func TestRouteShard(t *testing.T) {
	for _, tc := range []struct {
		disp, ext  int
		ordered    bool
		shard      int
		designated bool
	}{
		{0, 8, false, 0, false},
		{8, 8, false, 0, false},   // ends on shard 0's last byte
		{12, 16, false, 0, true},  // spans shards 0-1
		{16, 16, false, 1, false}, // exactly shard 1
		{20, 8, false, 1, false},
		{40, 4, false, 2, false},
		{40, 8, true, 0, true}, // ordered: designated wherever it lands
		{0, 64, false, 0, true},
		{48, 16, false, 3, false},
		{32, 0, false, 2, false},  // a zero extent still occupies a point
		{60, 8, false, 3, false},  // runs past the region: clamped
		{100, 8, false, 3, false}, // out of range: clamped
		{-20, 4, false, 0, false}, // negative: clamped
	} {
		s, d := routeShard(64, 4, tc.disp, tc.ext, tc.ordered)
		if s != tc.shard || d != tc.designated {
			t.Errorf("routeShard(disp %d, ext %d, ordered %v) = (%d, %v), want (%d, %v)",
				tc.disp, tc.ext, tc.ordered, s, d, tc.shard, tc.designated)
		}
	}
}

// TestShardLaneModelScaling: a balanced load over 7 shards ends, in
// modelled time, when the busiest lane does — ceil(shards/workers) shards
// of tasks/shards tasks each — exactly, because each apply's end is fixed
// by its lane when it is routed. A task deposits no bytes, so each costs
// exactly DefaultApplyOverhead.
func TestShardLaneModelScaling(t *testing.T) {
	const shards, tasks, slot = 7, 700, 16
	const cost = DefaultApplyOverhead
	for _, workers := range []int{1, 2, 4, 7} {
		runBounded(t, newWorld(t, runtime.Config{Ranks: 1}), time.Minute, func(p *runtime.Proc) {
			e := Attach(p, Options{ApplyShards: shards, ApplyWorkers: workers})
			exp := &exposure{region: memsim.Region{Size: shards * slot}}
			// Routing touches the shard lanes, which only the delivery
			// token's holder may: it runs in the handler of a message this
			// rank sends itself, on this goroutine, as the NIC is idle.
			const kRoute = 250 // outside every layer's kinds
			routed := 0
			p.NIC().RegisterHandler(kRoute, func(*simnet.Message, vtime.Time) {
				for ; routed < tasks; routed++ {
					// A kind apply has no branch for: only routing and the lane run.
					r := &applyOp{e: e, m: &simnet.Message{Kind: kAck}, exp: exp}
					r.disp = routed % shards * slot
					e.scheduleApplyRange(r, 0, 0, slot)
				}
			})
			if _, err := p.NIC().Send(0, &simnet.Message{Dst: p.Rank(), Kind: kRoute}); err != nil || routed != tasks {
				t.Fatalf("workers=%d: routed %d of %d tasks (send: %v)", workers, routed, tasks, err)
			}
			var makespan int64
			for s := range e.shards {
				makespan = max(makespan, e.shards[s].latency.Max())
			}
			if want := int64((shards+workers-1)/workers*(tasks/shards)) * int64(cost); makespan != want {
				t.Errorf("workers=%d: modelled makespan %d, want exactly %d", workers, makespan, want)
			}
		})
	}
}

// TestShardFIFOPerShard: puts routed to one shard apply strictly in issue
// order, and at strictly increasing modelled times, whether the shards
// share one lane or each has its own.
func TestShardFIFOPerShard(t *testing.T) {
	const shards, perShard, stride = 4, 200, 256
	for _, workers := range []int{1, shards} {
		var mu sync.Mutex
		order := make([][]Access, shards)
		runBounded(t, newWorld(t, runtime.Config{Ranks: 2, Seed: 13}), time.Minute, func(p *runtime.Proc) {
			opts := Options{}
			if p.Rank() == 0 {
				opts = Options{ApplyShards: shards, ApplyWorkers: workers}
			}
			e := Attach(p, opts)
			comm := p.Comm()
			if p.Rank() == 0 {
				rec := depositRecorder(func(a Access) {
					mu.Lock()
					order[a.Disp/stride] = append(order[a.Disp/stride], a)
					mu.Unlock()
				})
				e.AddAccessRecorder(&rec)
			}
			tm := shipTM(p, e, shards*stride)
			if p.Rank() == 0 {
				p.Barrier()
				return
			}
			scratch := p.Alloc(1)
			// Round-robin over the shards, so every shard's stream is
			// interleaved with the others'.
			for i := 0; i < perShard; i++ {
				for s := 0; s < shards; s++ {
					if _, err := e.Put(scratch, 1, datatype.Byte, tm, s*stride+i, 1, datatype.Byte, 0, comm, AttrNone); err != nil {
						t.Errorf("put shard %d #%d: %v", s, i, err)
					}
				}
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Errorf("complete: %v", err)
			}
			p.Barrier()
		})
		for s, got := range order {
			if len(got) != perShard {
				t.Fatalf("workers=%d: shard %d applied %d puts, want %d", workers, s, len(got), perShard)
			}
			for i, a := range got {
				if a.Disp != s*stride+i {
					t.Fatalf("workers=%d: shard %d position %d applied put #%d: FIFO violated", workers, s, i, a.Disp-s*stride)
				}
				if i > 0 && a.At <= got[i-1].At {
					t.Fatalf("workers=%d: shard %d put #%d ends at %d, not after #%d at %d", workers, s, i, a.At, i-1, got[i-1].At)
				}
			}
		}
	}
}

// TestShardPanicKeepsApplying: a panicking apply is recovered and reported
// with its shard and value, and the next put routed to the same shard still
// applies.
func TestShardPanicKeepsApplying(t *testing.T) {
	w := newWorldLosing(t, runtime.Config{Ranks: 2, Seed: 17}, 2) // both puts: the target's failure stops any Complete
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = Options{ApplyShards: 2, ApplyWorkers: 2}
		}
		e := Attach(p, opts)
		comm := p.Comm()
		after := make(chan struct{})
		if p.Rank() == 0 {
			// Stride 32: both puts land on shard 1; the first one panics.
			var poisoned atomic.Bool
			rec := depositRecorder(func(a Access) {
				if a.Disp == 32 && poisoned.CompareAndSwap(false, true) {
					panic("boom")
				}
				if a.Disp == 40 {
					close(after)
				}
			})
			e.AddAccessRecorder(&rec)
		}
		tm := shipTM(p, e, 64)
		if p.Rank() == 0 {
			select {
			case <-after:
			case <-time.After(10 * time.Second):
				t.Error("the put queued after the panic never applied")
			}
			err := e.Err()
			if !errors.Is(err, ErrApplyFault) {
				t.Errorf("target Err() = %v, want wrapped ErrApplyFault", err)
			} else if msg := err.Error(); !strings.Contains(msg, "shard 1") || !strings.Contains(msg, "boom") {
				t.Errorf("target Err() = %q, want it to name shard 1 and the panic value", msg)
			}
			if n := e.ShardPanics.Value(); n != 1 {
				t.Errorf("shard.panics = %d, want 1", n)
			}
			if n := e.shards[1].tasks.Value(); n != 2 {
				t.Errorf("shard 1 routed %d puts, want 2", n)
			}
			p.Barrier()
			return
		}
		scratch := p.Alloc(8)
		for _, disp := range []int{32, 40} {
			if _, err := e.Put(scratch, 8, datatype.Byte, tm, disp, 8, datatype.Byte, 0, comm, AttrNone); err != nil {
				t.Errorf("put disp=%d: %v", disp, err)
			}
		}
		p.Barrier()
	})
}

// TestShardStatsSkewed: on a fully skewed workload (every put on shard 0)
// the per-shard task counts reconcile with the puts issued.
func TestShardStatsSkewed(t *testing.T) {
	const n = 400
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 19})
	var target *Engine
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = Options{ApplyShards: 4, ApplyWorkers: 4}
		}
		e := Attach(p, opts)
		comm := p.Comm()
		tm := shipTM(p, e, 64)
		if p.Rank() == 0 {
			target = e
			p.Barrier()
			return
		}
		scratch := p.Alloc(8)
		for i := 0; i < n; i++ {
			// Stride 16: [i%8, i%8+8) stays inside shard 0.
			if _, err := e.Put(scratch, 8, datatype.Byte, tm, i%8, 8, datatype.Byte, 0, comm, AttrNone); err != nil {
				t.Errorf("put #%d: %v", i, err)
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		p.Barrier()
	})
	if got := target.shards[0].tasks.Value(); got != n {
		t.Fatalf("shard 0 routed %d puts, want %d", got, n)
	}
	var total int64
	for s := range target.shards {
		total += target.shards[s].tasks.Value()
	}
	if total != n {
		t.Fatalf("shards routed %d puts in all, want %d", total, n)
	}
	if got := target.OpsApplied.Value(); got != n {
		t.Fatalf("ops.applied=%d, want %d", got, n)
	}
	if got := target.ShardDesignated.Value(); got != 0 {
		t.Errorf("%d designated routes, want 0", got)
	}
}

// TestShardedConvergesWithSerial: the overlapping-put sequence produces
// byte-identical exposures on the serial and sharded engines.
func TestShardedConvergesWithSerial(t *testing.T) {
	serial := runOverlapWorkload(t, Options{})
	for _, workers := range []int{1, 2, 4} {
		got := runOverlapWorkload(t, Options{ApplyShards: 4, ApplyWorkers: workers})
		if !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d diverged from serial engine:\n got %x\nwant %x", workers, got, serial)
		}
	}
}

// TestShardApplyPanicSticky: a panic in a sharded apply (injected through
// an access recorder) must not crash the process or unwind into the
// goroutine that delivered the put; it surfaces as a sticky wrapped
// ErrApplyFault from the target's Err() and is counted.
func TestShardApplyPanicSticky(t *testing.T) {
	w := newWorldLosing(t, runtime.Config{Ranks: 2, Seed: 3}, 1) // the put nothing completes (below)
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = Options{ApplyShards: 4, ApplyWorkers: 2}
		}
		e := Attach(p, opts)
		comm := p.Comm()
		if p.Rank() == 0 {
			fault := depositRecorder(func(Access) { panic("injected apply fault") })
			e.AddAccessRecorder(&fault)
		}
		tm := shipTM(p, e, 64)
		if p.Rank() == 0 {
			deadline := time.Now().Add(10 * time.Second)
			for e.Err() == nil && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if err := e.Err(); !errors.Is(err, ErrApplyFault) {
				t.Errorf("target Err() = %v, want wrapped ErrApplyFault", err)
			}
			if n := e.ShardPanics.Value(); n != 1 {
				t.Errorf("shard.panics = %d, want 1", n)
			}
			p.Barrier()
			return
		}
		scratch := p.Alloc(8)
		p.WriteLocal(scratch, 0, []byte("deadbeef"))
		// No Complete: the faulted op's completion report never fires, and
		// the fault is a target-side condition the target observes itself.
		if _, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrNone); err != nil {
			t.Errorf("put: %v", err)
		}
		p.Barrier()
	})
}

// TestShardTelemetryReconciles pins the watermark-join equation from
// DESIGN.md §10: on a clean run, the per-shard task watermarks plus the
// serializer bypass count account for every applied operation —
// sum(shard.tasks.*) + shard.bypass == ops.applied.
func TestShardTelemetryReconciles(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 5})
	var target *Engine
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = Options{ApplyShards: 4, ApplyWorkers: 2}
		}
		e := Attach(p, opts)
		comm := p.Comm()
		if p.Rank() == 0 {
			target = e
		}
		tm := shipTM(p, e, 64)
		if p.Rank() == 0 {
			p.Barrier()
			return
		}
		scratch := p.Alloc(16)
		put := func(disp, n int, attrs Attr) {
			if _, err := e.Put(scratch, n, datatype.Byte, tm, disp, n, datatype.Byte, 0, comm, attrs); err != nil {
				t.Errorf("put disp=%d: %v", disp, err)
			}
		}
		put(0, 8, AttrNone)   // shard 0
		put(20, 8, AttrNone)  // shard 1
		put(12, 16, AttrNone) // spans shards 0-1: designated
		put(4, 8, AttrOrdering)
		if _, err := e.Accumulate(AccSum, scratch, 1, datatype.Int64, tm, 48, 1, datatype.Int64, 0, comm, AttrAtomic); err != nil {
			t.Errorf("accumulate: %v", err)
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		p.Barrier()
	})
	if len(target.shards) != 4 {
		t.Fatalf("target engine has %d shards, want 4", len(target.shards))
	}
	var tasks int64
	for s := range target.shards {
		tasks += target.shards[s].tasks.Value()
	}
	bypass := target.ShardBypass.Value()
	applied := target.OpsApplied.Value()
	if tasks+bypass != applied {
		t.Fatalf("watermark join broken: sum(shard.tasks)=%d + bypass=%d != ops.applied=%d",
			tasks, bypass, applied)
	}
	if applied != 5 {
		t.Fatalf("ops.applied=%d, want 5", applied)
	}
	if bypass == 0 {
		t.Error("atomic accumulate did not take the serializer bypass")
	}
	if n := target.ShardDesignated.Value(); n != 2 {
		t.Errorf("%d designated routes, want 2 (the spanning and the ordered put)", n)
	}
}

// TestCompleteVariadic: Complete and Order with no rank arguments cover
// every communicator rank (self included, trivially), and AllRanks is the
// explicit spelling of the same thing.
func TestCompleteVariadic(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 3, Seed: 9})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 32)
		if p.Rank() == 0 {
			p.Barrier()
			return
		}
		scratch := p.Alloc(4)
		if _, err := e.Put(scratch, 4, datatype.Byte, tm, 4*(p.Rank()-1), 4, datatype.Byte, 0, comm, AttrNone); err != nil {
			t.Errorf("put: %v", err)
		}
		if err := e.Order(comm); err != nil {
			t.Errorf("Order(): %v", err)
		}
		if err := e.Complete(comm); err != nil {
			t.Errorf("Complete(): %v", err)
		}
		if err := e.Complete(comm, AllRanks); err != nil {
			t.Errorf("Complete(AllRanks): %v", err)
		}
		if err := e.Complete(comm, 0, 0); err != nil {
			t.Errorf("Complete(0, 0) with duplicate target: %v", err)
		}
		if err := e.Complete(comm, comm.Size()+7); err == nil {
			t.Error("Complete with out-of-range rank returned nil error")
		}
		p.Barrier()
	})
}
