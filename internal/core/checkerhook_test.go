package core

import (
	"sync"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
)

// countingRecorder is a minimal AccessRecorder for engine-side tests.
type countingRecorder struct {
	mu       sync.Mutex
	accesses []Access
}

func (r *countingRecorder) RecordAccess(a Access) {
	r.mu.Lock()
	r.accesses = append(r.accesses, a)
	r.mu.Unlock()
}

func (r *countingRecorder) RetireTarget(target int) {}

// TestAccessRecorderObservesApplies: an installed recorder sees every
// applied access with the fields the checker relies on — origin, byte
// interval, kind and epoch advanced by Order.
func TestAccessRecorderObservesApplies(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	rec, second := &countingRecorder{}, &countingRecorder{}
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		// Like the facade's WithChecker: every rank reports into the same
		// recorder — applies surface at the target.
		// A second recorder beside it — the shape of a rank that runs the
		// MPI-2 overlap ledger and the semantic checker at once. Both must
		// see every access; installing one twice must not double it.
		e.AddAccessRecorder(rec)
		e.AddAccessRecorder(second)
		e.AddAccessRecorder(rec)
		if got := e.AccessRecorders(); len(got) != 2 || got[0] != AccessRecorder(rec) || got[1] != AccessRecorder(second) {
			t.Errorf("AccessRecorders = %v, want the two installed recorders once each", got)
		}
		if p.Rank() == 0 {
			tm, _ := e.ExposeNew(64)
			p.Send(1, 0, tm.Encode())
			if err := e.CompleteCollective(comm); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(16)
		if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, 0); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := e.Order(comm, 0); err != nil {
			t.Fatalf("order: %v", err)
		}
		if _, err := e.Put(src, 8, datatype.Byte, tm, 8, 8, datatype.Byte, 0, comm, 0); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		if err := e.CompleteCollective(comm); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})

	if len(rec.accesses) != 2 {
		t.Fatalf("recorder saw %d accesses, want 2: %+v", len(rec.accesses), rec.accesses)
	}
	if len(second.accesses) != 2 {
		t.Errorf("the second recorder saw %d accesses, want what the first saw (2)", len(second.accesses))
	}
	a, b := rec.accesses[0], rec.accesses[1]
	if a.Disp+a.Len > b.Disp { // applied in issue order (Order between them)
		a, b = b, a
	}
	if a.Origin != 1 || a.Target != 0 || a.Disp != 0 || a.Len != 8 || a.Kind != AccessPut {
		t.Errorf("first access recorded as %+v, want origin 1 put of [0,8) at target 0", a)
	}
	if b.Disp != 8 || b.Len != 8 {
		t.Errorf("second access recorded as %+v, want [8,16)", b)
	}
	if a.Epoch == b.Epoch {
		t.Error("Order between the puts did not advance the stamped epoch")
	}
	if a.OpID == b.OpID {
		t.Error("distinct singleton puts share an op id")
	}
}

// TestPutHotPathNoAllocsWhenCheckerDisabled pins the access recorders'
// cost: with none installed the apply path's observation is one atomic
// load, so every primitive costs its committed number of the telemetry
// test's table; and the engine's side of an installed recorder is free too
// — the Access is passed by value, so a recorder that keeps nothing costs
// no allocation on either rank.
func TestPutHotPathNoAllocsWhenCheckerDisabled(t *testing.T) {
	seen := 0
	count := depositRecorder(func(Access) { seen++ })
	pinAllocs(t, pinThread, []allocStep{
		{"no recorder", func(*Engine) {}},
		{"a recorder that keeps nothing", func(e *Engine) { e.AddAccessRecorder(&count) }},
	})
	if seen == 0 {
		t.Error("the recorder saw no access: its step measured a disabled path")
	}
}
