package rma_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// TestFacadeWithFaults: a session on a world with a fault plan survives a
// lossy wire — the relay retransmits until the put converges — and the
// injected faults are counted by the network.
func TestFacadeWithFaults(t *testing.T) {
	plan := &rma.FaultPlan{
		Seed:    21,
		Default: rma.LinkFaults{Drop: 0.2, Dup: 0.2},
	}
	world := newWorld(t, runtime.Config{Ranks: 2, Faults: plan})
	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithMetrics())
		if p.Rank() == 0 {
			tm, region := s.Expose(64)
			p.Send(1, 0, tm.Encode())
			p.Barrier()
			got := p.Mem().Snapshot(region.Offset, 16)
			if !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 16)) {
				t.Errorf("target bytes %x did not converge", got)
			}
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		src := p.Alloc(16)
		p.WriteLocal(src, 0, bytes.Repeat([]byte{0xAB}, 16))
		if _, err := s.Put(src, 16, rma.Byte, tm, 0); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := s.Complete(0); err != nil {
			t.Fatalf("complete: %v", err)
		}
		if err := s.Err(); err != nil {
			t.Fatalf("session degraded unexpectedly: %v", err)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if world.Net().FaultsDropped.Value()+world.Net().FaultsDuplicated.Value() == 0 {
		t.Fatal("fault plan injected nothing")
	}
}

// TestFacadeLinkFailure: with a permanently dead link and a tiny retry
// budget, Complete surfaces the wrapped ErrLinkFailed sentinel and
// Session.Err() reports the degradation — within bounded time.
func TestFacadeLinkFailure(t *testing.T) {
	plan := &rma.FaultPlan{
		Seed:  22,
		Links: map[rma.LinkKey]rma.LinkFaults{{Src: 0, Dst: 1}: {Drop: 1}},
	}
	world := newWorld(t, runtime.Config{Ranks: 2, Faults: plan, Retry: &rma.RetryPolicy{Budget: 2}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := world.Run(func(p *runtime.Proc) {
			s := rma.Open(p)
			if p.Rank() == 1 {
				tm, _ := s.Expose(64)
				p.Send(0, 0, tm.Encode())
				return
			}
			enc, _ := p.Recv(1, 0)
			tm, err := rma.DecodeTargetMem(enc)
			if err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			src := p.Alloc(8)
			if _, err := s.Put(src, 8, rma.Byte, tm, 0); err != nil && !errors.Is(err, rma.ErrLinkFailed) {
				t.Errorf("put: %v", err)
				return
			}
			if err := s.Complete(1); !errors.Is(err, rma.ErrLinkFailed) {
				t.Errorf("Complete returned %v, want wrapped ErrLinkFailed", err)
			}
			if s.Err() == nil {
				t.Error("Session.Err() nil after link failure")
			}
		})
		if err != nil {
			t.Errorf("world: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Complete hung after retry budget exhaustion")
	}
}
