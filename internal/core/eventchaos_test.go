package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/trace"
)

// Event-driven chaos: the PR 4 fault matrix re-observed through the push
// surface. The blocking chaos tests prove Complete survives the faults;
// these prove the event surface does — every request observed via OnDone
// and Select gets exactly one terminal event, with a nil error under
// recoverable plans (the relay absorbs the faults) and a wrapped
// ErrLinkFailed/ErrApplyFault when the failure is sticky.

// runSevenWriterEvents is the seven-writer contention workload of
// faultchaos_test.go with every blocking Complete replaced by the event
// surface: requests are issued remote-complete + notified, observed with
// OnDone callbacks, reaped through an any-of Select over the outstanding
// requests, and rounds are separated by Select(OnQuiescent(target))
// instead of Complete. Returns the target's final bytes, which must be
// byte-identical to the blocking variant's.
func runSevenWriterEvents(t *testing.T, plan *simnet.FaultPlan) []byte {
	t.Helper()
	w := newWorld(t, runtime.Config{Ranks: fcWriters + 1, Seed: 7, Faults: plan})
	size := 2 * fcWriters * fcSlot
	final := make([]byte, size)
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(size)
			enc := tm.Encode()
			for r := 1; r <= fcWriters; r++ {
				p.Send(r, 9999, enc)
			}
			p.Barrier()
			copy(final, p.Mem().Snapshot(region.Offset, size))
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Errorf("decode: %v", err)
			panic("eventchaos: no descriptor")
		}
		putSlot := (p.Rank() - 1) * fcSlot
		accSlot := fcWriters*fcSlot + putSlot
		scratch := p.Alloc(fcSlot)
		var issued, terminal atomic.Int64
		ran := make(chan struct{}, 2*fcRounds) // one token per callback run
		for round := 0; round < fcRounds; round++ {
			pattern := bytes.Repeat([]byte{byte(16*p.Rank() + round)}, fcSlot)
			p.WriteLocal(scratch, 0, pattern)
			rput, err := e.Put(scratch, fcSlot, datatype.Byte, tm, putSlot, fcSlot, datatype.Byte, 0, comm, AttrRemoteComplete|AttrNotify)
			if err != nil {
				t.Errorf("rank %d round %d put: %v", p.Rank(), round, err)
				panic("eventchaos: put failed")
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(1000*p.Rank()+round))
			p.WriteLocal(scratch, 0, b[:])
			racc, err := e.Accumulate(AccSum, scratch, 1, datatype.Int64, tm, accSlot, 1, datatype.Int64, 0, comm, AttrAtomic|AttrRemoteComplete|AttrNotify)
			if err != nil {
				t.Errorf("rank %d round %d acc: %v", p.Rank(), round, err)
				panic("eventchaos: acc failed")
			}
			for _, r := range []*Request{rput, racc} {
				issued.Add(1)
				rank, rd := p.Rank(), round
				r.OnDone(func(err error) {
					if err != nil {
						t.Errorf("rank %d round %d request failed: %v", rank, rd, err)
					}
					terminal.Add(1)
					ran <- struct{}{}
				})
			}
			// Reap the round's requests any-of-first, the pipelined idiom.
			pending := []*Request{rput, racc}
			for len(pending) > 0 {
				cases := make([]SelectCase, len(pending))
				for i, r := range pending {
					cases[i] = OnRequest(r)
				}
				idx, ev, err := e.Select(comm, cases...)
				if err != nil {
					t.Errorf("rank %d round %d select: %v", p.Rank(), round, err)
					panic("eventchaos: select failed")
				}
				if ev.Kind != EvRequestDone || ev.Err != nil {
					t.Errorf("rank %d round %d: event %v err %v, want clean request-done", p.Rank(), round, ev.Kind, ev.Err)
					panic("eventchaos: bad event")
				}
				pending = append(pending[:idx], pending[idx+1:]...)
			}
			// Round separation: the put slot may only be overwritten after
			// the target has applied everything issued so far — what
			// Complete(0) established in the blocking variant, and what
			// quiescence (confirmed >= sent, all ops notified) establishes
			// here.
			if _, ev, err := e.Select(comm, OnQuiescent(0)); err != nil || ev.Kind != EvQuiescent {
				t.Errorf("rank %d round %d quiescence: kind %v err %v", p.Rank(), round, ev.Kind, err)
				panic("eventchaos: quiescence failed")
			}
		}
		// A request is done before it runs its callbacks, so the
		// Select that reaped the last request can return while that
		// request's callback is still about to run. "Exactly once" promises
		// the count, not "already": wait (bounded) for each callback.
		for i := issued.Load(); i > 0; i-- {
			select {
			case <-ran:
			case <-time.After(10 * time.Second):
				t.Errorf("rank %d: %d of %d terminal callbacks never ran", p.Rank(), i, issued.Load())
				i = 0
			}
		}
		if got, want := terminal.Load(), issued.Load(); got != want {
			t.Errorf("rank %d: %d terminal callbacks for %d requests, want exactly one each", p.Rank(), got, want)
		}
		p.Barrier()
	})
	return final
}

// TestEventChaosSevenWriter asserts the event-driven seven-writer run
// converges byte-exactly with the blocking fault-free baseline across the
// whole fault matrix, with every request observed exactly once.
func TestEventChaosSevenWriter(t *testing.T) {
	baseline := runSevenWriter(t, nil, Options{})
	if got := runSevenWriterEvents(t, nil); !bytes.Equal(got, baseline) {
		t.Fatalf("fault-free event-driven run diverged from blocking bytes:\n got %x\nwant %x", got, baseline)
	}
	for _, tc := range chaosPlans() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runSevenWriterEvents(t, tc.plan)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("faulted event-driven run diverged from blocking fault-free bytes:\n got %x\nwant %x", got, baseline)
			}
		})
	}
}

// enableFlight installs a flight recorder whose ring outlasts a test's
// whole fault history, dumping into a test-owned directory.
func enableFlight(t *testing.T, e *Engine) {
	e.EnableFlightRecorder(telemetry.FlightConfig{Dir: t.TempDir(), Cap: 1 << 14})
}

// flightFaults counts the kind records in e's flight ring, reporting any
// that names a peer other than victim or whose error does not wrap cause.
func flightFaults(t *testing.T, e *Engine, kind trace.Kind, victim int, cause error) int {
	n := 0
	for _, ev := range e.FlightRecorder().Ring().Snapshot() {
		if ev.Kind == kind {
			n++
			if ev.Peer != victim || !errors.Is(ev.Err, cause) {
				t.Errorf("%v record names peer %d with %v, want %d wrapping %v", kind, ev.Peer, ev.Err, victim, cause)
			}
		}
	}
	return n
}

// TestEventChaosLinkFailureTerminal: when a link drops everything forever
// and the retry budget runs out, every in-flight request observed through
// OnDone gets exactly one terminal event carrying the wrapped
// ErrLinkFailed — by which time the flight ring already holds the
// failure — Select over the victims drains them all as EvRequestDone
// with the error, counter arms fail over to EvFault, and the ring records
// the link failure exactly once — all within bounded time.
func TestEventChaosLinkFailureTerminal(t *testing.T) {
	const inflight = 6
	w := newWorld(t, runtime.Config{
		Ranks: 2,
		Faults: &simnet.FaultPlan{
			Seed:  41,
			Links: map[simnet.LinkKey]simnet.LinkFaults{{Src: 0, Dst: 1}: {Drop: 1}},
		},
	})
	runBounded(t, w, 30*time.Second, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 1 {
			tm, _ := e.ExposeNew(64)
			p.Send(0, 9999, tm.Encode())
			return
		}
		enableFlight(t, e)
		enc, _ := p.Recv(1, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		scratch := p.Alloc(8)
		var mu sync.Mutex
		fired := make(map[uint64]int)
		fireErrs := make(map[uint64]error)
		recorded := make(map[uint64]int)
		var victims []*Request
		for i := 0; i < inflight; i++ {
			r, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 1, comm, AttrRemoteComplete)
			if err != nil {
				// The budget may exhaust mid-loop; later issues fail
				// synchronously, which is the documented fast-fail.
				if !errors.Is(err, ErrLinkFailed) {
					t.Errorf("put %d: %v", i, err)
				}
				continue
			}
			id := r.ID()
			r.OnDone(func(err error) {
				n := flightFaults(t, e, trace.KindLinkFailed, 1, ErrLinkFailed)
				mu.Lock()
				fired[id]++
				fireErrs[id] = err
				recorded[id] = n
				mu.Unlock()
			})
			victims = append(victims, r)
		}
		// Reap every victim through Select: each must surface as
		// EvRequestDone carrying the wrapped link failure.
		pending := append([]*Request(nil), victims...)
		for len(pending) > 0 {
			cases := make([]SelectCase, len(pending))
			for i, r := range pending {
				cases[i] = OnRequest(r)
			}
			idx, ev, err := e.Select(comm, cases...)
			if err != nil {
				t.Errorf("select: %v", err)
				return
			}
			if ev.Kind != EvRequestDone || !errors.Is(ev.Err, ErrLinkFailed) {
				t.Errorf("victim event = kind %v err %v, want request-done with wrapped ErrLinkFailed", ev.Kind, ev.Err)
			}
			pending = append(pending[:idx], pending[idx+1:]...)
		}
		mu.Lock()
		for _, r := range victims {
			if n := fired[r.ID()]; n != 1 {
				t.Errorf("request %d: %d terminal callbacks, want exactly 1", r.ID(), n)
			}
			if err := fireErrs[r.ID()]; !errors.Is(err, ErrLinkFailed) {
				t.Errorf("request %d terminal error = %v, want wrapped ErrLinkFailed", r.ID(), err)
			}
			if n := recorded[r.ID()]; n != 1 {
				t.Errorf("request %d: OnDone saw %d link-failed records in the flight ring, want 1 (evidence first)", r.ID(), n)
			}
		}
		mu.Unlock()
		// A counter arm on the dead target fails over to EvFault
		// rather than hanging.
		if _, ev, err := e.Select(comm, OnConfirmed(1, inflight)); err != nil {
			t.Errorf("select(confirmed): %v", err)
		} else if ev.Kind != EvFault || !errors.Is(ev.Err, ErrLinkFailed) {
			t.Errorf("counter arm = kind %v err %v, want fault with wrapped ErrLinkFailed", ev.Kind, ev.Err)
		}
		// The flight ring recorded the link failure exactly once.
		if n := flightFaults(t, e, trace.KindLinkFailed, 1, ErrLinkFailed); n != 1 {
			t.Errorf("flight ring holds %d link-failed records, want 1", n)
		}
	})
}

// TestEventChaosApplyFaultTerminal: a sharded-apply panic poisons the
// engine; every outstanding request gets exactly one OnDone with the
// wrapped ErrApplyFault, after the flight ring recorded the engine-wide
// fault (naming AllRanks) exactly once, and armed Select counter cases
// fail over to EvFault.
func TestEventChaosApplyFaultTerminal(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 43})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{ApplyShards: 2, ApplyWorkers: 2})
		comm := p.Comm()
		if p.Rank() == 1 {
			tm, _ := e.ExposeNew(64)
			p.Send(0, 9999, tm.Encode())
			p.Barrier()
			return
		}
		enableFlight(t, e)
		enc, _ := p.Recv(1, 9999)
		if _, err := DecodeTargetMem(enc); err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Outstanding requests that will never complete on their own: the
		// poisoned engine must fail them.
		var calls [3]atomic.Int32
		var errs [3]error
		var recorded [3]int
		var reqs [3]*Request
		for i := range reqs {
			reqs[i] = e.newRequest(1, latNone)
			i := i
			reqs[i].OnDone(func(err error) {
				errs[i] = err
				recorded[i] = flightFaults(t, e, trace.KindApplyFault, AllRanks, ErrApplyFault)
				calls[i].Add(1)
			})
		}
		// An armed Select on a counter that will never move, raced against
		// the fault: it must return EvFault, not hang.
		selDone := make(chan Event, 1)
		go func() {
			_, ev, err := e.Select(comm, OnConfirmed(1, 1000))
			if err != nil {
				t.Errorf("armed select: %v", err)
			}
			selDone <- ev
		}()
		// Poison the engine the way a recovered sharded apply does.
		e.onApplyPanic(0, "injected deposit panic")
		if !errors.Is(e.Err(), ErrApplyFault) {
			t.Fatalf("Err = %v, want wrapped ErrApplyFault", e.Err())
		}
		for i := range reqs {
			if n := calls[i].Load(); n != 1 {
				t.Errorf("request %d: %d terminal callbacks, want 1", i, n)
			}
			if !errors.Is(errs[i], ErrApplyFault) {
				t.Errorf("request %d terminal error = %v, want wrapped ErrApplyFault", i, errs[i])
			}
			if recorded[i] != 1 {
				t.Errorf("request %d: OnDone saw %d apply-fault records in the flight ring, want 1 (evidence first)", i, recorded[i])
			}
		}
		ev := <-selDone
		if ev.Kind != EvFault || !errors.Is(ev.Err, ErrApplyFault) {
			t.Errorf("armed select event = kind %v err %v, want fault with wrapped ErrApplyFault", ev.Kind, ev.Err)
		}
		// The target-side arm fails over too.
		if _, ev, err := e.Select(comm, OnApplied(1, 1000)); err != nil {
			t.Errorf("select(applied): %v", err)
		} else if ev.Kind != EvFault || !errors.Is(ev.Err, ErrApplyFault) {
			t.Errorf("applied arm = kind %v err %v, want fault with wrapped ErrApplyFault", ev.Kind, ev.Err)
		}
		if n := flightFaults(t, e, trace.KindApplyFault, AllRanks, ErrApplyFault); n != 1 {
			t.Errorf("flight ring holds %d apply-fault records, want 1", n)
		}
		p.Barrier()
	})
}
