package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// TestCompleteInvalidRank: an out-of-range target rank is an error, not a
// hang.
func TestCompleteInvalidRank(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		if err := e.Complete(p.Comm(), 7); err == nil {
			t.Error("Complete(7) on a 2-rank comm accepted")
		}
		if err := e.Order(p.Comm(), -3); err == nil && !p.NIC().Endpoint().Ordered() {
			t.Error("Order(-3) accepted")
		}
		p.Barrier()
	})
}

// TestCompleteImpliesRequestsDone: when Complete(target) returns, every
// request it covers tests done and its OnDone has run — on each path that
// reports a delivery counter with a request in hand: an ack and a get
// reply (unbatched), a batch notification (batched).
func TestCompleteImpliesRequestsDone(t *testing.T) {
	const rounds, ops = 50, 8
	for name, opts := range map[string]Options{"ack+reply": {}, "notify+reply": {BatchOps: 4}} {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, runtime.Config{Ranks: 2, Seed: 37})
			runBounded(t, w, time.Minute, func(p *runtime.Proc) {
				e := Attach(p, opts)
				comm := p.Comm()
				tm := shipTM(p, e, 64)
				buf := p.Alloc(8)
				round := func() error {
					var fired atomic.Int32
					reqs := make([]*Request, ops)
					for i := range reqs {
						var err error
						if i%2 == 0 {
							reqs[i], err = e.Put(buf, 8, datatype.Byte, tm, 8*i, 8, datatype.Byte, 0, comm, AttrRemoteComplete)
						} else {
							reqs[i], err = e.Get(buf, 8, datatype.Byte, tm, 8*i, 8, datatype.Byte, 0, comm, AttrNone)
						}
						if err != nil {
							return err
						}
						reqs[i].OnDone(func(error) { fired.Add(1) })
					}
					if err := e.Complete(comm, 0); err != nil {
						return err
					}
					// No waiting: the contract holds the instant Complete returns.
					if n := fired.Load(); n != ops {
						return fmt.Errorf("%d of %d OnDone callbacks had run when Complete returned", n, ops)
					}
					for i, r := range reqs {
						if !r.Test() {
							return fmt.Errorf("request %d not done when Complete returned", i)
						}
					}
					return nil
				}
				for i := 0; i < rounds && p.Rank() == 1; i++ {
					if err := round(); err != nil {
						t.Errorf("round %d: %v", i, err)
						break
					}
				}
				p.Barrier()
			})
		})
	}
}

// TestCompleteWithNoTraffic: completing against ranks never targeted is
// trivial and cheap.
func TestCompleteWithNoTraffic(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 3})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		before := e.Probes.Value()
		if err := e.Complete(p.Comm(), AllRanks); err != nil {
			t.Errorf("complete: %v", err)
		}
		_ = before
		if e.OpsIssued.Value() != 0 {
			t.Error("Complete issued RMA operations")
		}
		p.Barrier()
	})
}

// TestOrderCollective: the collective ordering call runs on a
// sub-communicator and the following puts respect it on an unordered net.
func TestOrderCollective(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 3, UnorderedNet: true, Seed: 41})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(4)
			for r := 1; r < 3; r++ {
				p.Send(r, 0, tm.Encode())
			}
			// Join the collectives.
			if err := e.OrderCollective(comm); err != nil {
				t.Errorf("order collective: %v", err)
			}
			if err := e.CompleteCollective(comm); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			got := p.Mem().Snapshot(region.Offset, 1)[0]
			if got != 2 {
				t.Errorf("final byte %d, want a post-Order value 2", got)
			}
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(4)
		p.WriteLocal(src, 0, []byte{1, 1, 1, 1})
		if _, err := e.Put(src, 1, datatype.Byte, tm, 0, 1, datatype.Byte, 0, comm, AttrNone); err != nil {
			t.Errorf("put: %v", err)
		}
		if err := e.OrderCollective(comm); err != nil {
			t.Errorf("order collective: %v", err)
		}
		p.WriteLocal(src, 0, []byte{2, 2, 2, 2})
		if _, err := e.Put(src, 1, datatype.Byte, tm, 0, 1, datatype.Byte, 0, comm, AttrNone); err != nil {
			t.Errorf("put: %v", err)
		}
		if err := e.CompleteCollective(comm); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
}

// TestEngineAccessors covers the small introspection surface.
func TestEngineAccessors(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 1})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		if e.Proc() != p {
			t.Error("Proc() mismatch")
		}
		if e.Mechanism().String() != "thread" {
			t.Errorf("default mechanism %v", e.Mechanism())
		}
		if e.lock.Holder() != -1 {
			t.Errorf("fresh lock holder %d", e.lock.Holder())
		}
	})
}

// TestRetractErrors covers Retract misuse.
func TestRetractErrors(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		if p.Rank() == 0 {
			tm, _ := e.ExposeNew(8)
			if err := e.Retract(tm); err != nil {
				t.Errorf("retract: %v", err)
			}
			if err := e.Retract(tm); err == nil {
				t.Error("double retract accepted")
			}
			foreign := tm
			foreign.Owner = 1
			if err := e.Retract(foreign); err == nil {
				t.Error("retracting a foreign exposure accepted")
			}
		}
		p.Barrier()
	})
}

// TestGetBlockingAttr: a blocking get returns with the data already
// local.
func TestGetBlockingAttr(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(8)
			p.WriteLocal(region, 0, []byte{9, 9, 9, 9, 9, 9, 9, 9})
			p.Send(1, 0, tm.Encode())
			p.Barrier()
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		dst := p.Alloc(8)
		req, err := e.Get(dst, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrBlocking)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		if !req.Test() {
			t.Error("blocking get returned incomplete")
		}
		if got := p.ReadLocal(dst, 0, 1)[0]; got != 9 {
			t.Errorf("data %d not local after blocking get", got)
		}
		p.Barrier()
	})
}

// TestTracerRecordsProtocol: an attached tracer sees the issue, apply and
// probe events of a put + complete in virtual-time order.
func TestTracerRecordsProtocol(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	var originRing, targetRing *trace.Ring
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		ring := trace.New(64)
		e.SetTracer(ring)
		if p.Rank() == 0 {
			targetRing = ring
		} else {
			originRing = ring
		}
		tm := shipTM(p, e, 8)
		if p.Rank() == 1 {
			src := p.Alloc(8)
			if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrBlocking); err != nil {
				t.Errorf("put: %v", err)
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Errorf("complete: %v", err)
			}
		}
		p.Barrier()
	})
	if got := originRing.CountByCat(); got["issue"] != 1 {
		t.Errorf("origin events %v, want 1 issue", got)
	}
	tgt := targetRing.CountByCat()
	if tgt["apply"] != 1 || tgt["probe"] != 1 {
		t.Errorf("target events %v, want 1 apply + 1 probe", tgt)
	}
	// The apply precedes the probe in virtual time.
	evs := targetRing.Snapshot()
	var applyIdx, probeIdx = -1, -1
	for i, e := range evs {
		switch e.Kind {
		case trace.KindApply:
			applyIdx = i
		case trace.KindProbe:
			probeIdx = i
		}
	}
	if applyIdx < 0 || probeIdx < 0 || applyIdx > probeIdx {
		t.Errorf("timeline order wrong:\n%s", targetRing.Timeline())
	}
}

// TestParkedProbeAnswersAfterArrival: a completion probe that parks
// because its operation has not been applied yet is answered no earlier
// than it arrived, even when the apply that releases it is stamped
// earlier in virtual time. Under the progress serializer the target
// applies an atomic put only when it next enters the library — here after
// the probe has parked — at the put's own, earlier, modelled time.
func TestParkedProbeAnswersAfterArrival(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: serializer.MechProgress})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			for e.Probes.Value() < 1 {
				pollYield()
			}
			for e.OpsApplied.Value() < 1 {
				e.Progress()
				pollYield()
			}
			p.Barrier()
			return
		}
		if _, err := e.Put(p.Alloc(8), 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrAtomic); err != nil {
			t.Errorf("put: %v", err)
		}
		probeAt := p.Now()
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		// The probe leaves at probeAt plus one injection, arrives a wire
		// time later and is delivered after the NIC's ingress overhead; its
		// answer then pays its own injection and wire time.
		c := p.NIC().Endpoint().Cost()
		arrival := probeAt + vtime.Time(c.Inject(0)+c.Wire(0)+c.Deliver(0))
		if bound := arrival + vtime.Time(c.Inject(0)+c.Wire(0)); p.Now() < bound {
			t.Errorf("Complete returned at %d, before the probe's arrival %d plus an answer's injection and wire time (%d)", p.Now(), arrival, bound)
		}
		p.Barrier()
	})
}
