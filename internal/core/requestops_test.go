package core

import (
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
)

func TestWaitAnyTestAll(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 64)
		if p.Rank() == 1 {
			src := p.Alloc(64)
			var reqs []*Request
			for i := 0; i < 5; i++ {
				req, err := e.Put(src, 64, datatype.Byte, tm, 0, 64, datatype.Byte, 0, comm, AttrRemoteComplete)
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				reqs = append(reqs, req)
			}
			idx := WaitAny(reqs...)
			if idx < 0 || idx >= len(reqs) {
				t.Errorf("WaitAny = %d", idx)
			}
			WaitAll(reqs...)
			if !TestAll(reqs...) {
				t.Error("TestAll false after WaitAll")
			}
			if got := TestSome(reqs...); len(got) != 5 {
				t.Errorf("TestSome found %d of 5", len(got))
			}
			// Degenerate forms.
			if WaitAny() != -1 {
				t.Error("WaitAny() should be -1")
			}
			if WaitAny(nil) != 0 {
				t.Error("WaitAny(nil) should be 0")
			}
			if !TestAll(nil, nil) {
				t.Error("TestAll of nils should be true")
			}
			e.Complete(comm, 0)
		}
		p.Barrier()
	})
}

func TestExposeCollective(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 4})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tms, region, err := e.ExposeCollective(comm, 32)
		if err != nil {
			t.Errorf("expose collective: %v", err)
			return
		}
		if len(tms) != 4 || region.Size != 32 {
			t.Errorf("tms=%d region=%d", len(tms), region.Size)
		}
		for r, tm := range tms {
			if tm.Owner != r || tm.Size != 32 {
				t.Errorf("descriptor %d: %+v", r, tm)
			}
		}
		// Ring put through the collective descriptors.
		next := (p.Rank() + 1) % 4
		src := p.Alloc(4)
		p.WriteLocal(src, 0, []byte{byte(p.Rank()), 0, 0, 0})
		if _, err := e.Put(src, 4, datatype.Byte, tms[next], 0, 4, datatype.Byte, next, comm, AttrBlocking); err != nil {
			t.Errorf("ring put: %v", err)
		}
		if err := e.CompleteCollective(comm); err != nil {
			t.Errorf("complete: %v", err)
		}
		prev := (p.Rank() + 3) % 4
		if got := p.Mem().Snapshot(region.Offset, 1)[0]; got != byte(prev) {
			t.Errorf("ring value %d, want %d", got, prev)
		}
	})
}

// TestStrictDebugAttrs: the requirement-5 preset makes every put ordered,
// remote-complete, and atomic without changing call sites.
func TestStrictDebugAttrs(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 1 {
			e.SetCommAttrs(comm, StrictDebugAttrs)
			src := p.Alloc(8)
			issued := p.Now()
			if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrBlocking); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			// Remote completion implies a round trip: the blocking put
			// returns with the rank's clock well past the local-only send
			// time.
			if took := p.Now() - issued; took < 3000 {
				t.Errorf("strict put returned %d ns after its issue; remote completion not applied", took)
			}
			e.Complete(comm, 0)
		}
		p.Barrier()
		if p.Rank() == 0 {
			// The atomic attribute routed the deposit through the thread
			// serializer.
			if e.OpsApplied.Value() != 1 {
				t.Errorf("applied = %d", e.OpsApplied.Value())
			}
		}
	})
}

// TestProgressQuantumDelaysApplies: with MechProgress and a large poll
// quantum, an op's remote completion lands on a poll boundary.
func TestProgressQuantumDelays(t *testing.T) {
	const quantum = 1 * time.Millisecond
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: serializer.MechProgress, ProgressQuantum: quantum})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			// Keep making progress so the origin's blocking op can finish.
			for e.OpsApplied.Value() < 1 {
				e.Progress()
				pollYield()
			}
			p.Barrier()
			return
		}
		src := p.Alloc(8)
		if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrAtomic|AttrRemoteComplete|AttrBlocking); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		// The apply could not happen before the first poll boundary, so
		// the blocking put returns with the rank's clock at the
		// ack-carried completion time, at least the quantum.
		if now := p.Now(); now < 1000000 {
			t.Errorf("put returned at %d, want >= the 1ms poll boundary", now)
		}
		p.Barrier()
	})
}

// depositRecorder is an AccessRecorder that forwards each applied access.
type depositRecorder func(Access)

func (f depositRecorder) RecordAccess(a Access) { f(a) }
func (depositRecorder) RetireTarget(target int) {}

// TestDepositHook: a diagnostic access recorder sees source, handle,
// displacement and length of every deposit (what the MPI-2 overlap ledger
// is built on).
func TestDepositHook(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	type dep struct{ src, disp, length int }
	got := make(chan dep, 1)
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			hook := depositRecorder(func(a Access) {
				select {
				case got <- dep{a.Origin, a.Disp, a.Len}:
				default:
				}
			})
			e.AddAccessRecorder(&hook)
		}
		tm := shipTM(p, e, 64)
		if p.Rank() == 1 {
			src := p.Alloc(16)
			if _, err := e.Put(src, 16, datatype.Byte, tm, 8, 16, datatype.Byte, 0, comm, AttrBlocking); err != nil {
				t.Errorf("put: %v", err)
			}
			e.Complete(comm, 0)
		}
		p.Barrier()
	})
	select {
	case d := <-got:
		if d.src != 1 || d.disp != 8 || d.length != 16 {
			t.Errorf("hook saw %+v", d)
		}
	default:
		t.Error("deposit hook never fired")
	}
}

// TestEngineCloseViaWorld: World.Close shuts the thread serializer down
// (no panic, applied work preserved).
func TestEngineCloseViaWorld(t *testing.T) {
	w := runtime.NewWorld(runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: serializer.MechThread})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 1 {
			src := p.Alloc(8)
			if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrAtomic|AttrBlocking); err != nil {
				t.Errorf("put: %v", err)
			}
			e.Complete(comm, 0)
		}
		p.Barrier()
	})
	w.Close()
	w.Close() // second Close must be safe for the network; engines are closed once
}
