package rma_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// newWorld builds a world with a cleanup hook that also asserts no rank
// lost a nonblocking request.
func newWorld(t *testing.T, cfg runtime.Config) *runtime.World {
	t.Helper()
	w := runtime.NewWorld(cfg)
	t.Cleanup(func() {
		if n := rma.LostRequests(w); n != 0 {
			t.Errorf("%d nonblocking requests lost: never observed, never completed", n)
		}
		w.Close()
	})
	return w
}

// TestFacadeEndToEnd drives the public API the way an application would:
// batched session, descriptor exchange, puts with per-op attribute
// options, notified completion, accumulate, and sentinel classification.
func TestFacadeEndToEnd(t *testing.T) {
	const ranks = 4
	world := newWorld(t, runtime.Config{Ranks: ranks})

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithBatch(8))

		if p.Rank() == 0 {
			tm, region := s.Expose(ranks * 8)
			enc := tm.Encode()
			for r := 1; r < ranks; r++ {
				p.Send(r, 0, enc)
			}
			if err := s.CompleteCollective(); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			buf := p.Mem().Snapshot(region.Offset, ranks*8)
			for r := 1; r < ranks; r++ {
				got := int64(binary.LittleEndian.Uint64(buf[r*8:]))
				if want := int64(r * 10); got != want {
					t.Errorf("rank %d slot holds %d, want %d", r, got, want)
				}
			}
			return
		}

		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode descriptor: %v", err)
		}
		src := p.Alloc(8)
		write := func(v int64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			p.WriteLocal(src, 0, b[:])
		}

		// A put and an atomic accumulate ride the same batch; together
		// they leave rank*10 in this rank's slot.
		write(int64(p.Rank() * 4))
		if _, err := s.Put(src, 1, rma.Int64, tm, p.Rank()*8); err != nil {
			t.Fatalf("put: %v", err)
		}
		write(int64(p.Rank() * 6))
		if _, err := s.Accumulate(rma.Sum, src, 1, rma.Int64, tm, p.Rank()*8, rma.WithAtomic()); err != nil {
			t.Fatalf("accumulate: %v", err)
		}
		if err := s.Complete(tm.Owner); err != nil {
			t.Errorf("complete: %v", err)
		}
		if s.Engine().Batches.Value() < 1 {
			t.Error("session-level WithBatch did not reach the engine")
		}

		// Per-op options: a blocking put returns the session's one shared,
		// already-completed request and a nil error.
		write(int64(p.Rank() * 10))
		req, err := s.Put(src, 1, rma.Int64, tm, p.Rank()*8, rma.WithBlocking())
		if err != nil {
			t.Fatalf("blocking put: %v", err)
		}
		again, err := s.Put(src, 1, rma.Int64, tm, p.Rank()*8, rma.WithBlocking())
		if err != nil {
			t.Fatalf("blocking put: %v", err)
		}
		if again != req {
			t.Error("two blocking puts returned different requests, want the one shared done request")
		}
		if !req.Test() || req.Err() != nil {
			t.Errorf("blocking put returned a request with Test %v, Err %v; want a done one without error", req.Test(), req.Err())
		}
		ran := false
		req.OnDone(func(error) { ran = true })
		if !ran {
			t.Error("OnDone on the shared done request did not run inline")
		}
		if err := s.Complete(tm.Owner); err != nil {
			t.Errorf("complete: %v", err)
		}

		// Errors classify through the re-exported sentinels.
		if _, err := s.Put(src, 1, rma.Int64, tm, ranks*800); !errors.Is(err, rma.ErrBounds) {
			t.Errorf("out-of-bounds put returned %v, want ErrBounds", err)
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeBoundsErrors: every access outside the exposure or the origin
// region is refused at issue time with ErrBounds, from the call that
// issued it.
func TestFacadeBoundsErrors(t *testing.T) {
	world := newWorld(t, runtime.Config{Ranks: 2})

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		const end = 16
		tms, _, err := s.ExposeCollective(end)
		if err != nil {
			t.Errorf("expose: %v", err)
			return
		}
		tm := tms[1-p.Rank()]
		src := p.Alloc(8)
		// A word at end-4 straddles the end of tm.
		errOf := func(_ any, err error) error { return err }
		for _, c := range []struct {
			what string
			err  error
		}{
			{"Put past the exposure", errOf(s.Put(src, 1, rma.Int64, tm, end*100))},
			{"Put at a negative displacement", errOf(s.Put(src, 1, rma.Int64, tm, -8))},
			{"Get running past the exposure", errOf(s.Get(src, 1, rma.Int64, tm, end-4))},
			{"Accumulate running past the exposure", errOf(s.Accumulate(rma.Sum, src, 1, rma.Int64, tm, end-4))},
			{"FetchAdd on a word straddling the end", errOf(s.FetchAdd(tm, end-4, 1))},
			{"CompareSwap on a word straddling the end", errOf(s.CompareSwap(tm, end-4, 0, 1))},
			{"FetchWord on a word straddling the end", errOf(s.FetchWord(tm, end-4))},
			{"FetchAdd at a negative displacement", errOf(s.FetchAdd(tm, -8, 1))},
			{"Put from an origin region too small for its count", errOf(s.Put(src, 2, rma.Int64, tm, 0))},
		} {
			if !errors.Is(c.err, rma.ErrBounds) {
				t.Errorf("rank %d: %s returned %v, want ErrBounds", p.Rank(), c.what, c.err)
			}
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeBoundsNoWrap: a displacement near MaxInt must not wrap the
// origin's bounds check. Against a 16-byte descriptor every transfer and
// read-modify-write at such a displacement, and one whose last byte lands
// one past the end, fails at issue with ErrBounds, and nothing reaches the
// target for it to refuse.
func TestFacadeBoundsNoWrap(t *testing.T) {
	const size = 16
	world := newWorld(t, runtime.Config{Ranks: 2})

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		if p.Rank() == 0 {
			tm, _ := s.Expose(size)
			p.Send(1, 0, tm.Encode())
			p.Recv(1, 1)
			if n := p.NIC().BadReq.Value(); n != 0 {
				t.Errorf("target counted %d bad requests, want 0: an access got past the origin", n)
			}
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode descriptor: %v", err)
		}
		src := p.Alloc(8)
		errOf := func(_ any, err error) error { return err }
		for _, disp := range []int{math.MaxInt, math.MaxInt - 3, tm.Size - 7} {
			for _, c := range []struct {
				what string
				err  error
			}{
				{"Put", errOf(s.Put(src, 8, rma.Byte, tm, disp))},
				{"Get", errOf(s.Get(src, 8, rma.Byte, tm, disp))},
				{"Accumulate", errOf(s.Accumulate(rma.Sum, src, 1, rma.Int64, tm, disp))},
				{"FetchWord", errOf(s.FetchWord(tm, disp))},
				{"CompareSwap", errOf(s.CompareSwap(tm, disp, 0, 1))},
				{"FetchAdd", errOf(s.FetchAdd(tm, disp, 1))},
			} {
				if !errors.Is(c.err, rma.ErrBounds) {
					t.Errorf("%s at displacement %d returned %v, want ErrBounds", c.what, disp, c.err)
				}
			}
		}
		if err := s.Complete(tm.Owner); err != nil {
			t.Errorf("complete: %v", err)
		}
		p.Send(0, 1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeForgedSizeRefusedAtTarget: the origin checks a displacement
// against the descriptor's Size, but Size is an exported field an origin can
// raise. The target checks every landing against the region it exposed, so
// a put, an accumulate and a get aimed past it with a forged Size are
// refused there, counted in BadReq, and the region allocated next to the
// exposure keeps its bytes.
func TestFacadeForgedSizeRefusedAtTarget(t *testing.T) {
	const size, disp = 16, 32
	world := newWorld(t, runtime.Config{Ranks: 2})

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		if p.Rank() == 0 {
			tm, region := s.Expose(size)
			next := p.Alloc(64)
			if next.Offset != region.End() {
				t.Errorf("neighbour at %d, want it right after the exposure at %d", next.Offset, region.End())
			}
			fill := bytes.Repeat([]byte{0xAB}, next.Size)
			p.WriteLocal(next, 0, fill)
			p.Send(1, 0, tm.Encode())
			p.Recv(1, 1)
			if got := p.Mem().Snapshot(next.Offset, next.Size); !bytes.Equal(got, fill) {
				t.Errorf("neighbouring region changed: %x", got)
			}
			if n := p.NIC().BadReq.Value(); n != 3 {
				t.Errorf("target counted %d bad requests, want 3 (put, accumulate, get)", n)
			}
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode descriptor: %v", err)
		}
		tm.Size = 4 * size
		src := p.Alloc(8)
		p.WriteLocal(src, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		if _, err := s.Put(src, 8, rma.Byte, tm, disp); err != nil {
			t.Errorf("forged put should fail at the target, not the origin: %v", err)
		}
		if _, err := s.Accumulate(rma.Sum, src, 1, rma.Int64, tm, disp); err != nil {
			t.Errorf("forged accumulate should fail at the target, not the origin: %v", err)
		}
		if err := s.Complete(tm.Owner); err != nil {
			t.Errorf("complete: %v", err)
		}
		req, err := s.Get(src, 8, rma.Byte, tm, disp)
		if err != nil {
			t.Fatalf("forged get should fail at the target, not the origin: %v", err)
		}
		req.Wait()
		if err := req.Err(); !errors.Is(err, rma.ErrBadHandle) {
			t.Errorf("forged get returned %v, want ErrBadHandle", err)
		}
		if got := p.Mem().Snapshot(src.Offset, 8); !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
			t.Errorf("failed get overwrote its origin buffer: %x", got)
		}
		p.Send(0, 1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeBlockingGetReturnsTargetError: a blocking call returns its
// operation's asynchronous failure itself. A blocking Get of a handle its
// target no longer exposes returns nil and ErrBadHandle from the call, and
// leaves the origin buffer alone.
func TestFacadeBlockingGetReturnsTargetError(t *testing.T) {
	world := newWorld(t, runtime.Config{Ranks: 2})
	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		if p.Rank() == 0 {
			tm, _ := s.Expose(8)
			if err := s.Retract(tm); err != nil {
				t.Errorf("retract: %v", err)
			}
			p.Send(1, 0, tm.Encode())
			p.Recv(1, 1)
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode descriptor: %v", err)
		}
		dst := p.Alloc(8)
		p.WriteLocal(dst, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		req, err := s.Get(dst, 8, rma.Byte, tm, 0, rma.WithBlocking())
		if req != nil || !errors.Is(err, rma.ErrBadHandle) {
			t.Errorf("blocking get of an unexposed handle returned (%v, %v), want (nil, ErrBadHandle)", req, err)
		}
		if got := p.Mem().Snapshot(dst.Offset, 8); !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
			t.Errorf("failed get overwrote its origin buffer: %x", got)
		}
		p.Send(0, 1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeTargetLayout: WithTargetLayout transfers a contiguous origin
// buffer into a non-symmetric target layout.
func TestFacadeTargetLayout(t *testing.T) {
	world := newWorld(t, runtime.Config{Ranks: 2})

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		if p.Rank() == 0 {
			tm, region := s.Expose(8)
			p.Send(1, 0, tm.Encode())
			if err := s.CompleteCollective(); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			got := p.Mem().Snapshot(region.Offset, 8)
			want := []byte{1, 2, 0, 0, 3, 4, 0, 0}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("target byte %d is %d, want %d", i, got[i], want[i])
				}
			}
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, _ := rma.DecodeTargetMem(enc)
		src := p.Alloc(4)
		p.WriteLocal(src, 0, []byte{1, 2, 3, 4})
		// 4 contiguous bytes scatter into 2 blocks of 2 with stride 4.
		vec := rma.Vector(2, 2, 4, rma.Byte)
		if _, err := s.Put(src, 4, rma.Byte, tm, 0, rma.WithTargetLayout(1, vec), rma.WithBlocking()); err != nil {
			t.Fatalf("strided put: %v", err)
		}
		if err := s.Complete(tm.Owner); err != nil {
			t.Errorf("complete: %v", err)
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeFlagAfterData is the two-location handoff on a network that
// scrambles messages: rank 0 publishes data, then a flag, into rank 1's
// memory, while rank 1 spins on the flag through loopback gets; whenever
// it sees round r in the flag the data must already be r*100. The two
// writes are kept in order once by an Order between them (the shmem_fence
// idiom) and once by per-operation attributes alone (UPC's strict
// accesses: both writes ordered, remotely complete and blocking — a
// relaxed data write is outside the ordered stream and may pass a later
// strict flag write).
func TestFacadeFlagAfterData(t *testing.T) {
	const rounds = 30
	for name, write := range map[string][]rma.OpOption{
		"Order":                    {rma.WithBlocking()},
		"per-operation attributes": {rma.WithOrdering(), rma.WithRemoteComplete(), rma.WithBlocking()},
	} {
		t.Run(name, func(t *testing.T) {
			world := newWorld(t, runtime.Config{Ranks: 2, UnorderedNet: true, Seed: 5})
			err := world.Run(func(p *runtime.Proc) {
				defer p.Barrier() // whatever happens, both ranks get here: no early return may strand the other
				s := rma.Open(p)
				tms, _, err := s.ExposeCollective(16) // [0,8): data, [8,16): flag
				if err != nil {
					t.Errorf("expose: %v", err)
					return
				}
				word := p.Alloc(8)
				xfer := func(op func(rma.Region, int, rma.Type, rma.TargetMem, int, ...rma.OpOption) (*rma.Request, error), disp int, opts ...rma.OpOption) {
					if _, err := op(word, 1, rma.Int64, tms[1], disp, opts...); err != nil {
						t.Errorf("transfer at %d: %v", disp, err)
					}
				}
				if p.Rank() == 0 {
					for round := uint64(1); round <= rounds; round++ {
						p.WriteLocal(word, 0, binary.LittleEndian.AppendUint64(nil, round*100))
						xfer(s.Put, 0, write...)
						if name == "Order" {
							if err := s.Order(); err != nil {
								t.Errorf("order: %v", err)
							}
						}
						p.WriteLocal(word, 0, binary.LittleEndian.AppendUint64(nil, round))
						xfer(s.Put, 8, write...)
						if err := s.Complete(); err != nil {
							t.Errorf("complete: %v", err)
						}
					}
					// On this network the fence is software: every flag put
					// must have stalled for the data put's confirmation.
					if stalls := s.Engine().FenceStalls.Value(); name == "Order" && stalls < rounds {
						t.Errorf("Order stalled %d flag puts, want %d", stalls, rounds)
					}
					return
				}
				get := func(disp int) uint64 {
					xfer(s.Get, disp, rma.WithBlocking())
					return binary.LittleEndian.Uint64(p.ReadLocal(word, 0, 8))
				}
				for seen := uint64(0); seen < rounds && !t.Failed(); {
					if flag := get(8); flag > seen {
						if data := get(0); data < flag*100 {
							t.Errorf("flag %d visible but data %d (want >= %d): the writes were reordered", flag, data, flag*100)
						}
						seen = flag
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
