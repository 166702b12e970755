package rma_test

import (
	"bytes"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// TestFacadeSharding drives the sharded target through the public facade:
// WithApplyShards at Open, disjoint-slot puts from every
// origin, the variadic no-argument Complete, and Request.Await — and
// checks slot-exact delivery plus shard telemetry through Metrics().
func TestFacadeSharding(t *testing.T) {
	const (
		ranks = 5
		slot  = 16
	)
	world := newWorld(t, runtime.Config{Ranks: ranks})

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p,
			rma.WithApplyShards(ranks-1),
			rma.WithMetrics(),
		)

		if p.Rank() == 0 {
			tm, region := s.Expose((ranks - 1) * slot)
			enc := tm.Encode()
			for r := 1; r < ranks; r++ {
				p.Send(r, 0, enc)
			}
			p.Barrier()
			buf := p.Mem().Snapshot(region.Offset, (ranks-1)*slot)
			for r := 1; r < ranks; r++ {
				got := buf[(r-1)*slot : r*slot]
				want := bytes.Repeat([]byte{byte(r)}, slot)
				if !bytes.Equal(got, want) {
					t.Errorf("origin %d slot = %x, want %x", r, got, want)
				}
			}
			snap := s.Metrics().Snapshot()
			var tasks, applied float64
			for name, v := range snap.Counters {
				switch {
				case name == "ops.applied":
					applied = float64(v)
				case name == "shard.bypass":
					tasks += float64(v)
				case len(name) > len("shard.tasks.") && name[:len("shard.tasks.")] == "shard.tasks.":
					tasks += float64(v)
				}
			}
			if applied == 0 || tasks != applied {
				t.Errorf("shard watermarks %v do not reconcile with ops.applied %v", tasks, applied)
			}
			return
		}

		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode descriptor: %v", err)
		}
		src := p.Alloc(slot)
		p.WriteLocal(src, 0, bytes.Repeat([]byte{byte(p.Rank())}, slot))
		req, err := s.Put(src, slot, rma.Byte, tm, (p.Rank()-1)*slot, rma.WithNotify())
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := req.Await(); err != nil {
			t.Errorf("Await: %v", err)
		}
		if !req.Test() {
			t.Error("request not done after Await returned")
		}
		// Variadic completion: no arguments means every rank.
		if err := s.Complete(); err != nil {
			t.Errorf("Complete(): %v", err)
		}
		if err := s.Order(); err != nil {
			t.Errorf("Order(): %v", err)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
}
