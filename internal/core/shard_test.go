package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
)

// runOverlapWorkload drives one origin through a deterministic sequence of
// overlapping and spanning puts (issue order fixes the final bytes) and
// returns the target's final exposure. topts selects the target engine.
func runOverlapWorkload(t *testing.T, topts Options) []byte {
	t.Helper()
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 11})
	const size = 64
	final := make([]byte, size)
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = topts
		}
		e := Attach(p, opts)
		comm := p.Comm()
		tm := shipTM(p, e, size)
		if p.Rank() == 0 {
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
		// overlap (FIFO), a spanning designated op, an op overlapping the
		// designated envelope, and an ordered designated op.
		put(0, 8, 0x11, AttrNone)
		put(4, 8, 0x22, AttrNone)   // overlaps the first within shard 0
		put(12, 16, 0x33, AttrNone) // spans shards 0-1: designated
		put(20, 8, 0x44, AttrNone)  // overlaps the designated envelope
		put(40, 8, 0x55, AttrOrdering)
		put(40, 4, 0x66, AttrNone) // overlaps the ordered op's range
		if err := e.Complete(comm); err != nil {
			t.Errorf("complete: %v", err)
			panic("overlap: complete failed")
		}
		p.Barrier()
	})
	return final
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

// TestShardApplyPanicSticky: a panic on a shard worker (injected through
// an access recorder) must not crash the process; it surfaces as a sticky
// wrapped ErrApplyFault from the target's Err().
func TestShardApplyPanicSticky(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 3})
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
	pool := target.ShardPool()
	if pool == nil {
		t.Fatal("target engine has no shard pool")
	}
	var tasks int64
	for s := 0; s < pool.Shards(); s++ {
		tasks += pool.Stats(s).Tasks.Value()
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
	if target.ShardDesignated.Value() == 0 {
		t.Error("spanning/ordered puts recorded no designated routes")
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
