package rma_test

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// TestFacadeEvents drives the event-driven completion surface through the
// public API: OnDone callbacks and Session.Select over requests and
// counters — the pipelined idiom the blocking Complete calls never
// needed. WithEvents is accepted and installs nothing.
func TestFacadeEvents(t *testing.T) {
	const ops = 8
	world := newWorld(t, runtime.Config{Ranks: 2})

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithEvents(32), rma.WithMetrics())

		if p.Rank() == 0 {
			tm, region := s.Expose(ops)
			p.Send(1, 0, tm.Encode())
			// The target overlaps its own work with the incoming puts:
			// Select(OnApplied) blocks until all of them landed.
			idx, ev, err := s.Select(rma.OnApplied(1, ops))
			if err != nil || idx != 0 {
				t.Errorf("select(applied): idx %d err %v", idx, err)
			}
			if ev.Kind != rma.EvDelivery || ev.Count < ops {
				t.Errorf("applied event = kind %v count %d, want delivery >= %d", ev.Kind, ev.Count, ops)
			}
			want := bytes.Repeat([]byte{7}, ops)
			if got := p.Mem().Snapshot(region.Offset, ops); !bytes.Equal(got, want) {
				t.Errorf("target bytes %x, want %x", got, want)
			}
			p.Barrier()
			return
		}

		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		src := p.Alloc(1)
		p.WriteLocal(src, 0, []byte{7})
		var fired atomic.Int32
		pending := make([]*rma.Request, 0, ops)
		for i := 0; i < ops; i++ {
			req, err := s.Put(src, 1, rma.Byte, tm, i, rma.WithNotify(), rma.WithRemoteComplete())
			if err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			req.OnDone(func(err error) {
				if err != nil {
					t.Errorf("request failed: %v", err)
				}
				fired.Add(1)
			})
			pending = append(pending, req)
		}
		// Reap any-of-first until all requests are done.
		for len(pending) > 0 {
			cases := make([]rma.SelectCase, len(pending))
			for i, r := range pending {
				cases[i] = rma.OnRequest(r)
			}
			idx, ev, err := s.Select(cases...)
			if err != nil {
				t.Fatalf("select: %v", err)
			}
			if ev.Kind != rma.EvRequestDone || ev.Err != nil {
				t.Fatalf("event = kind %v err %v, want clean request-done", ev.Kind, ev.Err)
			}
			if !pending[idx].Test() {
				t.Error("winner request not done")
			}
			pending = append(pending[:idx], pending[idx+1:]...)
		}
		if got := fired.Load(); got != ops {
			t.Errorf("%d OnDone callbacks for %d requests, want exactly one each", got, ops)
		}
		// Quiescence through the facade: everything sent is applied.
		if _, ev, err := s.Select(rma.OnQuiescent(0)); err != nil || ev.Kind != rma.EvQuiescent {
			t.Errorf("select(quiescent): kind %v err %v", ev.Kind, err)
		}
		// After-the-fact registration runs inline with the final error.
		var late atomic.Int32
		req, err := s.Put(src, 1, rma.Byte, tm, 0, rma.WithNotify(), rma.WithRemoteComplete())
		if err != nil {
			t.Fatalf("late put: %v", err)
		}
		if err := req.Await(); err != nil {
			t.Fatalf("await: %v", err)
		}
		req.OnDone(func(err error) {
			if err != nil {
				t.Errorf("late OnDone error: %v", err)
			}
			late.Add(1)
		})
		if late.Load() != 1 {
			t.Error("OnDone after completion did not run inline")
		}
		// WithEvents registered no metrics of its own.
		snap := s.Metrics().Snapshot()
		for _, names := range []map[string]int64{snap.Counters, snap.Gauges} {
			for name := range names {
				if strings.HasPrefix(name, "events.") {
					t.Errorf("WithEvents registered metric %s", name)
				}
			}
		}
		// Select input validation classifies under ErrBadHandle.
		if _, _, err := s.Select(); !errors.Is(err, rma.ErrBadHandle) {
			t.Errorf("empty select returned %v, want ErrBadHandle", err)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
}
