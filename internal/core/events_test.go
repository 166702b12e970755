package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// TestSelectWaitRetransmits: Select parks in the library, so when the
// only origin waits there for a completion whose frame was dropped, and
// the target is parked in Recv, the world goes quiet and retransmits.
func TestSelectWaitRetransmits(t *testing.T) {
	plan := &simnet.FaultPlan{Seed: 1010, Bursts: []simnet.Burst{{
		Link:   simnet.LinkKey{Src: 1, Dst: 0},
		Until:  vtime.Time(20 * time.Microsecond),
		Faults: simnet.LinkFaults{Drop: 1},
	}}}
	w := newWorld(t, runtime.Config{Ranks: 2, Faults: plan})
	runBounded(t, w, 10*time.Second, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		if p.Rank() == 0 {
			tm, _ := e.ExposeNew(8)
			p.Send(1, 9999, tm.Encode())
			p.Recv(1, 1)
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		req, err := e.Put(p.Alloc(8), 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, p.Comm(), AttrRemoteComplete)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		_, ev, err := e.Select(p.Comm(), OnRequest(req))
		if err != nil {
			t.Fatalf("select: %v", err)
		}
		if ev.Kind != EvRequestDone || ev.Req != req || ev.Err != nil {
			t.Errorf("select event = kind %v req %p err %v, want the put done without error", ev.Kind, ev.Req, ev.Err)
		}
		p.Send(0, 1, nil)
	})
	if w.Net().Retries.Value() == 0 {
		t.Error("no retransmission: the put's first frame was not dropped")
	}
}

// TestEventsDeliveryAndQuiescence drives a 2-rank notified-put workload
// and steps Select along the watermarks at both ends: the target's
// OnApplied(0, k) and the origin's OnConfirmed(1, k) fire for k = 1..ops
// with Count >= k and virtual-time stamps that never run backwards, and
// OnQuiescent fires once the target has confirmed everything sent.
func TestEventsDeliveryAndQuiescence(t *testing.T) {
	const ops = 8
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 21})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		// step selects case(k) for k = 1..ops and checks each event.
		step := func(kind EventKind, peer int, arm func(int64) SelectCase) {
			var lastAt vtime.Time
			for k := int64(1); k <= ops; k++ {
				_, ev, err := e.Select(comm, arm(k))
				if err != nil {
					t.Fatalf("select %v %d: %v", kind, k, err)
				}
				if ev.Kind != kind || ev.Rank != peer || ev.Count < k {
					t.Errorf("select %v %d = kind %v rank %d count %d, want %v from %d with count >= %d", kind, k, ev.Kind, ev.Rank, ev.Count, kind, peer, k)
				}
				if ev.At < lastAt {
					t.Errorf("%v %d at %d after %d, want monotone stamps", kind, k, ev.At, lastAt)
				}
				lastAt = ev.At
			}
		}
		if p.Rank() == 1 {
			tm, _ := e.ExposeNew(64)
			p.Send(0, 9999, tm.Encode())
			step(EvDelivery, 0, func(k int64) SelectCase { return OnApplied(0, k) })
			p.Barrier()
			return
		}
		enc, _ := p.Recv(1, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		scratch := p.Alloc(8)
		for i := 0; i < ops; i++ {
			if _, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 1, comm, AttrNotify); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		step(EvConfirm, 1, func(k int64) SelectCase { return OnConfirmed(1, k) })
		_, ev, err := e.Select(comm, OnQuiescent(1))
		if err != nil {
			t.Fatalf("select quiescent: %v", err)
		}
		if pc := e.PairCounters(1); ev.Kind != EvQuiescent || ev.Count < pc.Sent || pc.Confirmed < pc.Sent {
			t.Errorf("quiescent = kind %v count %d with %d sent, %d confirmed; want confirmed >= sent", ev.Kind, ev.Count, pc.Sent, pc.Confirmed)
		}
		if err := e.Complete(comm, 1); err != nil {
			t.Fatalf("complete: %v", err)
		}
		p.Barrier()
	})
}

// TestOnDoneExactlyOnce: callbacks registered before completion fire once
// on completion with the request's error; callbacks registered after run
// inline; multiple registrations each fire exactly once.
func TestOnDoneExactlyOnce(t *testing.T) {
	const ops = 16
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 23})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 64)
		if p.Rank() != 0 {
			scratch := p.Alloc(8)
			var fired [ops]atomic.Int32
			reqs := make([]*Request, ops)
			for i := 0; i < ops; i++ {
				r, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrRemoteComplete)
				if err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
				reqs[i] = r
				i := i
				r.OnDone(func(err error) {
					if err != nil {
						t.Errorf("request %d completed with %v", i, err)
					}
					fired[i].Add(1)
				})
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Fatalf("complete: %v", err)
			}
			for i := range fired {
				if n := fired[i].Load(); n != 1 {
					t.Errorf("request %d callback fired %d times, want exactly 1", i, n)
				}
			}
			// After-the-fact registration runs inline, again exactly once.
			ranInline := false
			reqs[0].OnDone(func(err error) { ranInline = true })
			if !ranInline {
				t.Error("OnDone on a completed request did not run inline")
			}
		}
		p.Barrier()
	})
}

// TestSelectArms exercises each Select arm in a healthy 2-rank world:
// OnRequest, OnApplied (target side), OnConfirmed and OnQuiescent
// (origin side), plus validation failures (zero cases, zero-value case,
// nil request, rank out of range).
func TestSelectArms(t *testing.T) {
	const ops = 4
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 29})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()

		// Validation errors are synchronous and wrap ErrBadHandle.
		if _, _, err := e.Select(comm); !errors.Is(err, ErrBadHandle) {
			t.Errorf("Select() = %v, want wrapped ErrBadHandle", err)
		}
		if _, _, err := e.Select(comm, SelectCase{}); !errors.Is(err, ErrBadHandle) {
			t.Errorf("Select(zero case) = %v, want wrapped ErrBadHandle", err)
		}
		if _, _, err := e.Select(comm, OnRequest(nil)); !errors.Is(err, ErrBadHandle) {
			t.Errorf("Select(nil request) = %v, want wrapped ErrBadHandle", err)
		}
		if _, _, err := e.Select(comm, OnApplied(5, 1)); !errors.Is(err, ErrBadHandle) {
			t.Errorf("Select(rank 5 of 2) = %v, want wrapped ErrBadHandle", err)
		}

		if p.Rank() == 1 {
			tm, _ := e.ExposeNew(64)
			p.Send(0, 9999, tm.Encode())
			// Target-side: wait for all ops to land via OnApplied.
			idx, ev, err := e.Select(comm, OnApplied(0, ops))
			if err != nil || idx != 0 {
				t.Errorf("Select(OnApplied) = %d, %v", idx, err)
			}
			if ev.Kind != EvDelivery || ev.Count < ops || ev.Rank != 0 {
				t.Errorf("OnApplied event = %+v, want delivery count>=%d from 0", ev, ops)
			}
			if now := p.Now(); now < ev.At {
				t.Errorf("clock %d behind event time %d after Select", now, ev.At)
			}
			p.Barrier()
			return
		}
		enc, _ := p.Recv(1, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		scratch := p.Alloc(8)
		var reqs []*Request
		for i := 0; i < ops; i++ {
			r, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 1, comm, AttrNotify|AttrRemoteComplete)
			if err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			reqs = append(reqs, r)
		}
		// Any-of over all requests: reap each exactly once.
		pending := append([]*Request(nil), reqs...)
		for len(pending) > 0 {
			cases := make([]SelectCase, len(pending))
			for i, r := range pending {
				cases[i] = OnRequest(r)
			}
			idx, ev, err := e.Select(comm, cases...)
			if err != nil {
				t.Fatalf("Select(requests): %v", err)
			}
			if ev.Kind != EvRequestDone || ev.Req != pending[idx] || ev.Err != nil {
				t.Errorf("request event = %+v, want done request %d", ev, pending[idx].ID())
			}
			pending = append(pending[:idx], pending[idx+1:]...)
		}
		// Origin-side counters: all ops were notified, so confirmation
		// reaches ops and the target goes quiescent.
		idx, ev, err := e.Select(comm, OnConfirmed(1, ops))
		if err != nil || idx != 0 || ev.Kind != EvConfirm || ev.Count < ops {
			t.Errorf("Select(OnConfirmed) = %d, %+v, %v", idx, ev, err)
		}
		idx, ev, err = e.Select(comm, OnQuiescent(1))
		if err != nil || idx != 0 || ev.Kind != EvQuiescent {
			t.Errorf("Select(OnQuiescent) = %d, %+v, %v", idx, ev, err)
		}
		if err := e.Complete(comm, 1); err != nil {
			t.Fatalf("complete: %v", err)
		}
		p.Barrier()
	})
}

// TestSelectMixedArms: a Select over a slow counter case and a fast
// request case returns the fast one; the loser's waiter is unregistered
// on the way out rather than leaking a wakeup.
func TestSelectMixedArms(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 31})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 64)
		if p.Rank() != 0 {
			scratch := p.Alloc(8)
			r, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrNone)
			if err != nil {
				t.Fatalf("put: %v", err)
			}
			// The local-completion put finishes immediately; the
			// OnApplied(0, 1000) arm can never fire (rank 0 sends us
			// nothing). Select must return the request arm.
			idx, ev, err := e.Select(comm, OnApplied(0, 1000), OnRequest(r))
			if err != nil {
				t.Fatalf("Select: %v", err)
			}
			if idx != 1 || ev.Kind != EvRequestDone {
				t.Errorf("Select = case %d kind %v, want case 1 request-done", idx, ev.Kind)
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Fatalf("complete: %v", err)
			}
		}
		p.Barrier()
	})
}

// TestRequestErrVisibleBeforeDone is the lost-wakeup regression test for
// the Wait/Err contract: a goroutine released by Await must observe the
// request's sticky error, for every terminal path, including requests
// failed asynchronously by a link failure.
func TestRequestErrVisibleBeforeDone(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 33})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		if p.Rank() != 0 {
			return
		}
		// A hand-built request failed while another of the rank's
		// goroutines waits on it: the error must be readable the instant
		// the waiter wakes.
		r := pendingRequest(e, 1)
		errCh := make(chan error, 1)
		go func() { errCh <- r.Await() }()
		wantErr := errors.New("injected terminal failure")
		e.settle(r.id, p.Now(), wantErr)
		if got := <-errCh; !errors.Is(got, wantErr) {
			t.Errorf("waiter woken by the completion saw Err = %v, want %v", got, wantErr)
		}
		// And OnDone delivers the same error, inline on the completed
		// request.
		var cbErr error
		r.OnDone(func(err error) { cbErr = err })
		if !errors.Is(cbErr, wantErr) {
			t.Errorf("OnDone after completion saw %v, want %v", cbErr, wantErr)
		}
		if !errors.Is(r.Err(), wantErr) {
			t.Errorf("Err = %v, want %v", r.Err(), wantErr)
		}
	})
}

// TestIssueFailureCompletesRequest is the orphaned-request regression
// test: when the issue path fails after the request has entered the
// slab (send refused by a failed link), the request must be
// completed with the error — Wait returns, OnDone fires, the table does
// not leak — instead of being left behind undone.
func TestIssueFailureCompletesRequest(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 35})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() != 0 {
			tm, _ := e.ExposeNew(64)
			p.Send(0, 9999, tm.Encode())
			return
		}
		enc, _ := p.Recv(1, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Fail the link by hand (the relay path does this via its
		// callback), then issue: the relay-less send still succeeds, so
		// exercise the issue path's sticky check and the slab's
		// accounting directly.
		e.onLinkFailed(1, p.Now(), ErrLinkFailed)
		if !errors.Is(e.Err(), ErrLinkFailed) {
			t.Fatalf("Err = %v after injected link failure", e.Err())
		}
		scratch := p.Alloc(8)
		before := heldSlots(e)
		_, xerr := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 1, comm, AttrNone)
		if after := heldSlots(e); after != before {
			t.Errorf("held slots went from %d to %d across a failed issue: orphaned request", before, after)
		}
		// Whether the send was refused or rode the degraded wire, no
		// request may be left undone in the table; if an error was
		// returned the request (if created) was completed with it.
		_ = xerr
	})
}

// TestSingletonIssueFailureIsComplete: every operation that pays its own
// wire message shares one issue path, so each keeps the promise xfer made —
// a failed issue leaves nothing behind. The retry budget toward rank 0 is
// exhausted for real (drop-everything 1→0 link); then an active message, a
// fetch-add and a put are issued toward it twice. First against the sticky
// error: a fast fail, nothing may be counted. Then with the engine's record
// of the failure erased, so the issue reaches the relay, which still
// refuses the link: the request already sits in the slab and must
// be completed with the error, not left behind (under the coarse lock the
// refused send is the lock request's, which must not leak either). An
// out-of-range active-message target is an error, not a panic.
func TestSingletonIssueFailureIsComplete(t *testing.T) {
	for _, mech := range []serializer.Mechanism{serializer.MechThread, serializer.MechCoarseLock} {
		t.Run(mech.String(), func(t *testing.T) {
			w := newWorld(t, runtime.Config{Ranks: 2, Faults: &simnet.FaultPlan{
				Seed:  31,
				Links: map[simnet.LinkKey]simnet.LinkFaults{{Src: 1, Dst: 0}: {Drop: 1}},
			}})
			runBounded(t, w, 30*time.Second, func(p *runtime.Proc) {
				e := Attach(p, Options{Atomicity: mech})
				comm := p.Comm()
				tm := shipTM(p, e, 64)
				if p.Rank() == 0 {
					return
				}
				scratch := p.Alloc(8)
				put := func(attrs Attr) error {
					_, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, attrs)
					return err
				}
				if err := put(AttrNone); err != nil && !errors.Is(err, ErrLinkFailed) {
					t.Errorf("put: %v", err)
				}
				if err := e.Complete(comm, 0); !errors.Is(err, ErrLinkFailed) {
					t.Errorf("Complete returned %v, want wrapped ErrLinkFailed", err)
					return
				}
				if _, err := e.InvokeAM(1, nil, comm.Size()+99, comm, AttrNone); !errors.Is(err, ErrBadHandle) {
					t.Errorf("active message to an out-of-range rank returned %v, want wrapped ErrBadHandle", err)
				}
				table := func() int { return heldSlots(e) }
				before, sent := table(), e.PairCounters(0).Sent
				for _, phase := range []string{"fast-failed on the sticky error", "refused by the relay"} {
					for name, issue := range map[string]func() error{
						"InvokeAM": func() error { _, err := e.InvokeAM(1, []byte("x"), 0, comm, AttrNone); return err },
						"FetchAdd": func() error { _, err := e.FetchAdd(tm, 0, 1, 0, comm, AttrNone); return err },
						"Put":      func() error { return put(AttrRemoteComplete) },
					} {
						if err := issue(); !errors.Is(err, ErrLinkFailed) {
							t.Errorf("%s %s returned %v, want wrapped ErrLinkFailed", name, phase, err)
						}
					}
					if got := table(); got != before {
						t.Errorf("held slots went from %d to %d across issues %s: orphans", before, got, phase)
					}
					if got := e.PairCounters(0).Sent; phase[0] == 'f' && got != sent {
						t.Errorf("issues %s were counted as sent: %d -> %d", phase, sent, got)
					}
					e.cmplMu.Lock()
					delete(e.failedLinks, 0)
					e.cmplMu.Unlock()
				}
			})
		})
	}
}

// TestBatchedIssueFailsFastOnDeadLink: with batching enabled and the link
// already failed sticky, the issue path must refuse the operation instead of
// parking it in the issue ring (the Await-before-flush lost wakeup).
func TestBatchedIssueFailsFastOnDeadLink(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 37})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{BatchOps: 8})
		comm := p.Comm()
		if p.Rank() != 0 {
			tm, _ := e.ExposeNew(64)
			p.Send(0, 9999, tm.Encode())
			return
		}
		enc, _ := p.Recv(1, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		e.onLinkFailed(1, p.Now(), ErrLinkFailed)
		scratch := p.Alloc(8)
		_, perr := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 1, comm, AttrNone)
		if !errors.Is(perr, ErrLinkFailed) {
			t.Errorf("batched put to dead link = %v, want synchronous wrapped ErrLinkFailed", perr)
		}
	})
}

// pendingRequest enters a nonblocking request toward target into the
// slab, as an operation an ack or reply completes would: for tests that
// complete or fail one by hand (settle).
func pendingRequest(e *Engine, target int) *Request {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, _ := e.newRequest(target, true, false)
	return r
}

// heldSlots counts the slab's slots not on its free list: pending
// requests, and blocking calls still in flight.
func heldSlots(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.slab) - len(e.free)
}
