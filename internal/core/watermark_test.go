package core

import (
	"errors"
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
)

// forgetSticky erases the engine's record of rank's failed link, so the
// next issue reaches the relay (which still refuses the link) instead of
// fast-failing on the sticky error.
func forgetSticky(e *Engine, rank int) {
	e.mu.Lock()
	delete(e.failedLinks, rank)
	e.mu.Unlock()
}

// selectErr is a one-case Select as a blocking call: the case's failure,
// or the validation error, or nil.
func selectErr(e *Engine, comm *runtime.Comm, c SelectCase) error {
	_, ev, err := e.Select(comm, c)
	if err != nil {
		return err
	}
	return ev.Err
}

// TestStickyPrecedence pins the one order of the sticky tiers on every
// surface that can answer with one. Each pair of failures is installed on
// rank 1's engine, the less severe first (so "the first one wins" cannot
// pass), while a notified put toward rank 0 is outstanding and an Order
// fence is armed: the link to rank 0 drops everything, so no confirmation
// ever comes, and the relay's budget is too large to run out meanwhile.
func TestStickyPrecedence(t *testing.T) {
	tiers := []struct { // most severe first
		is      error
		install func(e *Engine)
	}{
		{ErrApplyFault, func(e *Engine) { e.failEngine(fmt.Errorf("core: %w: installed by the test", ErrApplyFault)) }},
		{ErrRankFailed, func(e *Engine) { e.onRankDead(0, e.proc.Now(), errors.New("installed by the test")) }},
		{ErrLinkFailed, func(e *Engine) { e.onLinkFailed(0, e.proc.Now(), ErrLinkFailed) }},
	}
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		want, lesser := tiers[pair[0]], tiers[pair[1]]
		t.Run(fmt.Sprintf("%v over %v", want.is, lesser.is), func(t *testing.T) {
			w := newWorld(t, runtime.Config{
				Ranks: 2, Seed: 41, UnorderedNet: true,
				Faults: &simnet.FaultPlan{Seed: 411, Links: map[simnet.LinkKey]simnet.LinkFaults{{Src: 1, Dst: 0}: {Drop: 1}}},
				Retry:  &portals.RetryPolicy{Budget: 1 << 20},
			})
			runBounded(t, w, 30*time.Second, func(p *runtime.Proc) {
				e := Attach(p, Options{})
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
				if err := errors.Join(put(AttrNotify), e.Order(comm, 0)); err != nil {
					t.Errorf("notified put, then Order: %v", err)
					return
				}
				lesser.install(e)
				want.install(e)
				pc := e.PairCounters(0)
				_, _, ladder := e.confirm(0, pc.Sent, pc.WillConfirm)
				for surface, err := range map[string]error{
					"stickyFor":           e.stickyFor(0),
					"Err":                 e.Err(),
					"Complete":            e.Complete(comm, 0),
					"the confirm ladder":  ladder,
					"fence":               e.fence(0),
					"a put after Order":   put(AttrNone),
					"Select(OnConfirmed)": selectErr(e, comm, OnConfirmed(0, pc.Sent)),
					"Select(OnQuiescent)": selectErr(e, comm, OnQuiescent(0)),
				} {
					for _, tier := range tiers {
						if got := errors.Is(err, tier.is); got != (tier.is == want.is) {
							t.Errorf("%s returned %v: errors.Is(%v) = %v, want only %v", surface, err, tier.is, got, want.is)
						}
					}
				}
			})
		})
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// moving: goroutines of an earlier world are counted until they are gone.
func settledGoroutines() int {
	n := gort.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := gort.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestWaitsStartNoGoroutine: WaitAny and a four-case Select, both on
// their blocking path, leave nothing behind — no goroutine, for the winner
// or for the losing cases, which can never fire, and no waiter on a
// watermark — and between two cases that are already satisfied the lower
// index wins.
func TestWaitsStartNoGoroutine(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 1})
	runBounded(t, w, 30*time.Second, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		hooks := func(r *Request) int {
			r.mu.Lock()
			defer r.mu.Unlock()
			return len(r.onDone)
		}
		for name, wait := range map[string]func(never, winner *Request) int{
			"WaitAny": func(never, winner *Request) int { return WaitAny(never, winner, never) },
			"Select": func(never, winner *Request) int {
				i, _, _ := e.Select(comm, OnConfirmed(0, 1<<30), OnRequest(winner), OnRequest(never), OnApplied(0, 1<<30))
				return i
			},
		} {
			never, winner := pendingRequest(e, 0), pendingRequest(e, 0)
			baseline := settledGoroutines()
			got := make(chan int, 1)
			go func() { got <- wait(never, winner) }()
			for hooks(winner) == 0 { // until the call has registered and is (about to be) asleep
				time.Sleep(100 * time.Microsecond)
			}
			e.settle(winner.id, p.Now(), nil)
			if i := <-got; i != 1 {
				t.Errorf("%s returned case %d, want 1", name, i)
			}
			// An exiting goroutine is counted until it is gone: give ours time.
			for deadline := time.Now().Add(2 * time.Second); gort.NumGoroutine() > baseline && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if extra := gort.NumGoroutine() - baseline; extra > 0 {
				t.Errorf("%s left %d goroutines behind", name, extra)
			}
			if ws := e.waits(); len(ws) != 0 {
				t.Errorf("%s left counter waiters registered: %+v", name, ws)
			}
			e.settle(never.id, p.Now(), nil)
		}

		a, b := pendingRequest(e, 0), pendingRequest(e, 0)
		e.settle(b.id, p.Now(), nil)
		e.settle(a.id, p.Now(), nil)
		if i := WaitAny(a, b); i != 0 {
			t.Errorf("WaitAny over two completed requests returned %d, want 0", i)
		}
		if i, _, _ := e.Select(comm, OnApplied(0, 1<<30), OnConfirmed(0, 0), OnRequest(a)); i != 1 {
			t.Errorf("Select over (pending, satisfied, satisfied) returned %d, want 1", i)
		}
	})
}

// TestRequestWaitConcurrent: any number of goroutines may Wait on one
// request, all parked on the engine's bell, and a ring meant for another
// wait wakes nobody for good: the sleepers look again. First on a request
// held open while a stray ring hits the parked waiters; then on
// remote-complete puts racing their waiters.
func TestRequestWaitConcurrent(t *testing.T) {
	const waiters, rounds = 4, 50
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 29})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 1 {
			tm, _ := e.ExposeNew(8)
			p.Send(0, 9999, tm.Encode())
			p.Barrier()
			return
		}
		waitAll := func(r *Request) (returned *atomic.Int32, wg *sync.WaitGroup) {
			returned, wg = new(atomic.Int32), new(sync.WaitGroup)
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.Wait()
					if !r.Test() {
						t.Error("Wait returned before the request was done")
					}
					returned.Add(1)
				}()
			}
			return returned, wg
		}

		r := pendingRequest(e, 1)
		returned, wg := waitAll(r)
		for asleep := false; !asleep; time.Sleep(100 * time.Microsecond) {
			r.mu.Lock()
			asleep = r.waited
			r.mu.Unlock()
		}
		time.Sleep(5 * time.Millisecond) // let the other waiters park too
		e.bell.Ring()                    // a wakeup meant for another wait
		time.Sleep(5 * time.Millisecond)
		if n := returned.Load(); n != 0 {
			t.Errorf("%d waiters returned from a pending request", n)
		}
		e.settle(r.id, p.Now(), nil)
		wg.Wait()

		enc, _ := p.Recv(1, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		src := p.Alloc(8)
		for i := 0; i < rounds; i++ {
			r, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 1, comm, AttrRemoteComplete)
			if err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			_, wg := waitAll(r)
			wg.Wait()
			if err := r.Err(); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
		p.Barrier()
	})
}
