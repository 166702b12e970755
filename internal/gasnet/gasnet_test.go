package gasnet

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

func newWorld(t *testing.T, ranks int) *runtime.World {
	t.Helper()
	w := runtime.NewWorld(runtime.Config{Ranks: ranks})
	t.Cleanup(func() {
		if n := rma.LostRequests(w); n != 0 {
			t.Errorf("%d nonblocking requests lost: never observed, never completed", n)
		}
		w.Close()
	})
	return w
}

func TestShortAM(t *testing.T) {
	w := newWorld(t, 2)
	var got atomic.Uint64
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		comm := p.Comm()
		if p.Rank() == 0 {
			done := make(chan struct{})
			g.RegisterHandler(1, func(tok *Token, payload []byte, args [MaxArgs]uint64) {
				if payload != nil {
					t.Error("short AM carried a payload")
				}
				if tok.Src() != 1 {
					t.Errorf("src = %d", tok.Src())
				}
				got.Store(args[0]*1000 + args[1])
				close(done)
			})
			p.Barrier()
			<-done
			p.Barrier()
			return
		}
		p.Barrier()
		if err := g.RequestShort(0, comm, 1, [MaxArgs]uint64{7, 9}); err != nil {
			t.Errorf("short: %v", err)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != 7009 {
		t.Fatalf("args = %d", got.Load())
	}
}

func TestMediumAMWithReply(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		comm := p.Comm()
		if p.Rank() == 0 {
			g.RegisterHandler(2, func(tok *Token, payload []byte, args [MaxArgs]uint64) {
				// Echo back doubled bytes.
				out := make([]byte, len(payload))
				for i, b := range payload {
					out[i] = b * 2
				}
				if err := tok.Reply(3, out, [MaxArgs]uint64{uint64(len(out)), 0}); err != nil {
					t.Errorf("reply: %v", err)
				}
				if err := tok.Reply(3, nil, [MaxArgs]uint64{}); err == nil {
					t.Error("second reply accepted")
				}
			})
			p.Barrier()
			p.Barrier()
			return
		}
		done := make(chan []byte, 1)
		g.RegisterHandler(3, func(tok *Token, payload []byte, args [MaxArgs]uint64) {
			done <- append([]byte(nil), payload...)
		})
		p.Barrier()
		if err := g.RequestMedium(0, comm, 2, []byte{1, 2, 3}, [MaxArgs]uint64{}); err != nil {
			t.Errorf("medium: %v", err)
		}
		select {
		case got := <-done:
			if !bytes.Equal(got, []byte{2, 4, 6}) {
				t.Errorf("reply payload %v", got)
			}
		case <-time.After(2 * time.Second):
			t.Error("reply never arrived")
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMediumAMSizeLimit(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		if p.Rank() == 1 {
			err := g.RequestMedium(0, p.Comm(), 2, make([]byte, MaxMedium+1), [MaxArgs]uint64{})
			if err == nil {
				t.Error("oversized medium AM accepted")
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLongAMDepositsIntoSegment(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		comm := p.Comm()
		var handled atomic.Bool
		g.RegisterHandler(4, func(tok *Token, payload []byte, args [MaxArgs]uint64) {
			handled.Store(true)
		})
		seg, err := g.AttachSegment(comm, 128)
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if p.Rank() == 1 {
			if err := g.RequestLong(0, comm, 4, bytes.Repeat([]byte{0xEF}, 16), 32, [MaxArgs]uint64{}); err != nil {
				t.Errorf("long: %v", err)
			}
		}
		p.Barrier()
		if p.Rank() == 0 {
			deadline := time.After(2 * time.Second)
			for !handled.Load() {
				select {
				case <-deadline:
					t.Fatal("long AM handler never ran")
				default:
					time.Sleep(time.Millisecond)
				}
			}
			got := p.Mem().Snapshot(seg.Offset+32, 16)
			if !bytes.Equal(got, bytes.Repeat([]byte{0xEF}, 16)) {
				t.Error("long AM payload not in segment")
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLongAMOutOfSegmentRejected(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		comm := p.Comm()
		g.RegisterHandler(4, func(*Token, []byte, [MaxArgs]uint64) {})
		if _, err := g.AttachSegment(comm, 32); err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if p.Rank() == 1 {
			if err := g.RequestLong(0, comm, 4, make([]byte, 16), 24, [MaxArgs]uint64{}); err != nil {
				t.Errorf("long send: %v", err)
			}
		}
		p.Barrier()
		if p.Rank() == 0 {
			deadline := time.After(2 * time.Second)
			for p.NIC().BadReq.Value() == 0 {
				select {
				case <-deadline:
					t.Fatal("out-of-segment long AM not rejected")
				default:
					time.Sleep(time.Millisecond)
				}
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExtendedPutGet(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		comm := p.Comm()
		seg, err := g.AttachSegment(comm, 256)
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if p.Rank() == 1 {
			src := p.Alloc(64)
			p.WriteLocal(src, 0, bytes.Repeat([]byte{0x42}, 64))
			if err := g.Put(0, comm, 16, src, 0, 64); err != nil {
				t.Errorf("put: %v", err)
			}
			dst := p.Alloc(64)
			if err := g.Get(dst, 0, 0, comm, 16, 64); err != nil {
				t.Errorf("get: %v", err)
			}
			if got := p.ReadLocal(dst, 0, 64); !bytes.Equal(got, bytes.Repeat([]byte{0x42}, 64)) {
				t.Error("extended get mismatch")
			}
		}
		p.Barrier()
		if p.Rank() == 0 {
			got := p.Mem().Snapshot(seg.Offset+16, 64)
			if !bytes.Equal(got, bytes.Repeat([]byte{0x42}, 64)) {
				t.Error("extended put did not land")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExtendedNonblocking(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		comm := p.Comm()
		if _, err := g.AttachSegment(comm, 256); err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if p.Rank() == 1 {
			src := p.Alloc(32)
			var hs []*Handle
			for i := 0; i < 4; i++ {
				h, err := g.PutNB(0, comm, i*32, src, 0, 32)
				if err != nil {
					t.Errorf("putnb: %v", err)
					return
				}
				hs = append(hs, h)
			}
			for _, h := range hs {
				if err := h.Wait(); err != nil {
					t.Errorf("wait: %v", err)
				}
				if ok, err := h.Try(); !ok || err != nil {
					t.Errorf("try after wait: %v %v", ok, err)
				}
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetOutOfSegmentFails(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		comm := p.Comm()
		if _, err := g.AttachSegment(comm, 32); err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if p.Rank() == 1 {
			dst := p.Alloc(64)
			if err := g.Get(dst, 0, 0, comm, 16, 32); err == nil {
				t.Error("out-of-segment get should fail")
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSegmentBookkeeping(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		comm := p.Comm()
		if _, ok := g.Segment(); ok {
			t.Error("segment set before attach")
		}
		if _, err := g.AttachSegment(comm, 64); err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if _, err := g.AttachSegment(comm, 64); err == nil {
			t.Error("double attach accepted")
		}
		if sz, err := g.SegmentSize(1 - p.Rank()); err != nil || sz != 64 {
			t.Errorf("peer segment size %d, %v", sz, err)
		}
		if _, err := g.SegmentSize(5); err == nil {
			t.Error("bad rank accepted")
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateHandlerRejected(t *testing.T) {
	w := newWorld(t, 1)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		if err := g.RegisterHandler(9, func(*Token, []byte, [MaxArgs]uint64) {}); err != nil {
			t.Errorf("first register: %v", err)
		}
		if err := g.RegisterHandler(9, func(*Token, []byte, [MaxArgs]uint64) {}); err == nil {
			t.Error("duplicate register accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplyToReplyForbidden: a handler invoked for a *reply* cannot reply
// again (GASNet's request/reply discipline).
func TestReplyToReplyForbidden(t *testing.T) {
	w := newWorld(t, 2)
	violation := make(chan error, 1)
	err := w.Run(func(p *runtime.Proc) {
		g := Attach(p)
		comm := p.Comm()
		if p.Rank() == 0 {
			g.RegisterHandler(10, func(tok *Token, payload []byte, args [MaxArgs]uint64) {
				tok.Reply(11, nil, [MaxArgs]uint64{})
			})
			p.Barrier()
			p.Barrier()
			return
		}
		g.RegisterHandler(11, func(tok *Token, payload []byte, args [MaxArgs]uint64) {
			// This handler runs for a reply; replying again must fail.
			select {
			case violation <- tok.Reply(12, nil, [MaxArgs]uint64{}):
			default:
			}
		})
		p.Barrier()
		if err := g.RequestShort(0, comm, 10, [MaxArgs]uint64{}); err != nil {
			t.Errorf("short: %v", err)
		}
		deadline := time.After(2 * time.Second)
		select {
		case err := <-violation:
			if err == nil {
				t.Error("reply-to-reply accepted")
			}
		case <-deadline:
			t.Error("reply handler never ran")
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
