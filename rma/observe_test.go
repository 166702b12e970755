package rma_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// TestFacadeObservation drives the session's observation surface — the
// tracer and the reports built on it, health, Flush, Buddy — and an
// attribute given to Open as a session default. On every row both ranks
// open with the row's options; rank 1 completes one put to rank 0 and
// then runs the row's check.
func TestFacadeObservation(t *testing.T) {
	type env struct {
		p      *runtime.Proc
		s      *rma.Session
		peer   *rma.Session  // rank 0's session
		dst    rma.TargetMem // rank 0's exposed word
		target func() uint64 // reads rank 0's word straight from its memory
		src    rma.Region
	}
	for _, tc := range []struct {
		name  string
		opts  []rma.SessionOption
		check func(t *testing.T, e env)
	}{
		{"tracing", []rma.SessionOption{rma.WithTracing(0)}, func(t *testing.T, e env) {
			if ring := e.s.Tracer(); ring == nil || len(ring.Snapshot()) == 0 {
				t.Error("traced session recorded no events")
			}
			var timeline, critpath bytes.Buffer
			if err := e.s.DumpTimeline(&timeline); err != nil || timeline.Len() == 0 {
				t.Errorf("DumpTimeline wrote %d bytes, err %v", timeline.Len(), err)
			}
			rep, err := e.s.CriticalPath()
			if err != nil || rep.Spans == 0 || rep.Mismatched != 0 {
				t.Errorf("CriticalPath: %+v, err %v", rep, err)
			}
			if err := e.s.DumpCriticalPath(&critpath); err != nil || critpath.Len() == 0 {
				t.Errorf("DumpCriticalPath wrote %d bytes, err %v", critpath.Len(), err)
			}
		}},
		{"no tracer", nil, func(t *testing.T, e env) {
			if e.s.Tracer() != nil {
				t.Error("untraced session has a tracer")
			}
			var buf bytes.Buffer
			if err := e.s.DumpTimeline(&buf); !errors.Is(err, rma.ErrBadHandle) {
				t.Errorf("DumpTimeline: got %v, want ErrBadHandle", err)
			}
			if _, err := e.s.CriticalPath(); !errors.Is(err, rma.ErrBadHandle) {
				t.Errorf("CriticalPath: got %v, want ErrBadHandle", err)
			}
			if err := e.s.DumpCriticalPath(&buf); !errors.Is(err, rma.ErrBadHandle) {
				t.Errorf("DumpCriticalPath: got %v, want ErrBadHandle", err)
			}
			if b, ok := e.s.Buddy(); ok || b != -1 {
				t.Errorf("Buddy without replication: %d, %v", b, ok)
			}
		}},
		{"health", nil, func(t *testing.T, e env) {
			h := e.s.Health()
			if h.Rank != 1 || h.VTime <= 0 || len(h.Sticky) != 0 || len(h.Waits) != 0 {
				t.Errorf("health of an idle rank after a put: %+v", h)
			}
		}},
		{"flush", []rma.SessionOption{rma.WithBatch(8)}, func(t *testing.T, e env) {
			before := e.s.Engine().Batches.Value()
			if _, err := e.s.Put(e.src, 1, rma.Int64, e.dst, 0); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if n := e.s.Engine().Batches.Value(); n != before {
				t.Errorf("a batched put sent %d batches before Flush", n-before)
			}
			e.s.Flush()
			if n := e.s.Engine().Batches.Value(); n != before+1 {
				t.Errorf("Flush sent %d batches, want 1", n-before)
			}
		}},
		{"buddy", []rma.SessionOption{rma.WithReplication()}, func(t *testing.T, e env) {
			if b, ok := e.s.Buddy(); !ok || b != 0 {
				t.Errorf("rank 1's buddy in a 2-rank world: %d, %v; want 0, true", b, ok)
			}
		}},
		{"session default attribute", []rma.SessionOption{rma.WithRemoteComplete()}, func(t *testing.T, e env) {
			// A remote-complete put is acknowledged by its target; a plain
			// one completes at the origin and is never acknowledged.
			acks := e.peer.Engine().AcksSent.Value()
			e.p.WriteLocal(e.src, 0, binary.LittleEndian.AppendUint64(nil, 77))
			req, err := e.s.Put(e.src, 1, rma.Int64, e.dst, 0)
			if err != nil {
				t.Errorf("put: %v", err)
				return
			}
			req.Wait()
			if n := e.peer.Engine().AcksSent.Value() - acks; n != 1 || e.target() != 77 {
				t.Errorf("put under a session-default RemoteComplete: %d acks, target word %d; want 1 ack and 77", n, e.target())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, runtime.Config{Ranks: 2, Seed: 43})
			regions, sessions := make([]rma.Region, 2), make([]*rma.Session, 2)
			err := w.Run(func(p *runtime.Proc) {
				s := rma.Open(p, tc.opts...)
				tms, local, err := s.ExposeCollective(8)
				if err != nil {
					t.Errorf("expose: %v", err)
					return
				}
				regions[p.Rank()], sessions[p.Rank()] = local, s
				p.Barrier()
				if p.Rank() == 1 {
					e := env{p: p, s: s, peer: sessions[0], dst: tms[0], src: p.Alloc(8)}
					e.p.WriteLocal(e.src, 0, binary.LittleEndian.AppendUint64(nil, 5))
					if _, err := s.Put(e.src, 1, rma.Int64, e.dst, 0); err != nil {
						t.Errorf("put: %v", err)
					} else if err := s.Complete(0); err != nil {
						t.Errorf("complete: %v", err)
					}
					e.target = func() uint64 {
						return binary.LittleEndian.Uint64(p.World().Proc(0).Mem().Snapshot(regions[0].Offset, 8))
					}
					if got := e.target(); got != 5 {
						t.Errorf("target word after Complete: %d, want 5", got)
					}
					tc.check(t, e)
					if err := s.Complete(0); err != nil {
						t.Errorf("final complete: %v", err)
					}
				}
				p.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
