package core

import (
	"bytes"
	"encoding/binary"
	gort "runtime"
	"testing"
	"testing/quick"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
)

// newWorld builds a world with a cleanup hook.
func newWorld(t *testing.T, cfg runtime.Config) *runtime.World {
	t.Helper()
	w := runtime.NewWorld(cfg)
	t.Cleanup(w.Close)
	return w
}

// shipTM distributes rank 0's TargetMem descriptor to everyone: rank 0
// passes its descriptor; others receive it. This is the paper's "user is
// responsible for passing the target_mem object".
func shipTM(p *runtime.Proc, e *Engine, size int) TargetMem {
	if p.Rank() == 0 {
		tm, _ := e.ExposeNew(size)
		enc := tm.Encode()
		for r := 1; r < p.Size(); r++ {
			p.Send(r, 9999, enc)
		}
		return tm
	}
	enc, _ := p.Recv(0, 9999)
	tm, err := DecodeTargetMem(enc)
	if err != nil {
		panic(err)
	}
	return tm
}

func TestTargetMemEncodeDecodeRoundtrip(t *testing.T) {
	f := func(owner uint8, handle uint64, size uint16, big bool) bool {
		order := datatype.LittleEndian
		if big {
			order = datatype.BigEndian
		}
		tm := TargetMem{
			Owner:    int(owner),
			Handle:   handle,
			Size:     int(size),
			AddrBits: 64,
			Order:    order,
		}
		dec, err := DecodeTargetMem(tm.Encode())
		return err == nil && dec == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTargetMemDecodeRejectsBadInput(t *testing.T) {
	if _, err := DecodeTargetMem([]byte{1, 2, 3}); err == nil {
		t.Error("short descriptor accepted")
	}
	tm := TargetMem{Owner: 1, Size: 8, AddrBits: 33}
	if _, err := DecodeTargetMem(tm.Encode()); err == nil {
		t.Error("invalid AddrBits accepted")
	}
}

func TestBlockingPutCompletesLocally(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		tm := shipTM(p, e, 64)
		if p.Rank() == 0 {
			e.CompleteCollective(p.Comm())
			return
		}
		src := p.Alloc(64)
		req, err := e.Put(src, 64, datatype.Byte, tm, 0, 64, datatype.Byte, 0, p.Comm(), AttrBlocking)
		if err != nil {
			t.Errorf("put: %v", err)
			return
		}
		if !req.Test() {
			t.Error("blocking put returned an incomplete request")
		}
		e.CompleteCollective(p.Comm())
	})
}

func TestNonblockingPutRequestLifecycle(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		tm := shipTM(p, e, 64)
		if p.Rank() == 0 {
			e.CompleteCollective(p.Comm())
			return
		}
		src := p.Alloc(64)
		var reqs []*Request
		for i := 0; i < 16; i++ {
			req, err := e.Put(src, 64, datatype.Byte, tm, 0, 64, datatype.Byte, 0, p.Comm(), AttrNone)
			if err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			reqs = append(reqs, req)
		}
		WaitAll(reqs...)
		for i, r := range reqs {
			if !r.Test() {
				t.Errorf("request %d incomplete after WaitAll", i)
			}
		}
		e.CompleteCollective(p.Comm())
	})
}

// TestRemoteCompleteOrdering: with AttrRemoteComplete the request finishes
// strictly later (in virtual time) than local completion would, and the
// data is at the target when the request completes.
func TestRemoteCompleteVirtualTime(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		tm := shipTM(p, e, 8)
		if p.Rank() == 0 {
			p.Barrier()
			return
		}
		src := p.Alloc(8)
		p.WriteLocal(src, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		local, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, p.Comm(), AttrBlocking)
		if err != nil {
			t.Errorf("put: %v", err)
			return
		}
		remote, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, p.Comm(), AttrBlocking|AttrRemoteComplete)
		if err != nil {
			t.Errorf("put: %v", err)
			return
		}
		lDelta := local.CompletedAt()
		rDelta := remote.CompletedAt()
		if rDelta-lDelta < 1000 { // must include at least a wire round trip
			t.Errorf("remote completion at %d barely after local %d", rDelta, lDelta)
		}
		p.Barrier()
	})
}

// TestCompleteGuaranteesApplication: after Complete(comm, 0) returns, the
// target's memory holds the data — even though no put carried the
// remote-complete attribute.
func TestCompleteGuaranteesApplication(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(256)
			p.Send(1, 9999, tm.Encode())
			// Wait for rank 1's signal that Complete returned.
			p.Recv(1, 1)
			got := p.Mem().Snapshot(region.Offset, 256)
			if !bytes.Equal(got, bytes.Repeat([]byte{0x77}, 256)) {
				t.Error("data not applied although origin's Complete returned")
			}
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(256)
		p.WriteLocal(src, 0, bytes.Repeat([]byte{0x77}, 256))
		for i := 0; i < 10; i++ {
			if _, err := e.Put(src, 256, datatype.Byte, tm, 0, 256, datatype.Byte, 0, comm, AttrNone); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		p.Send(0, 1, nil)
	})
}

// TestOrderingAttrOnUnorderedNet: a chain of single-byte ordered puts to
// the same location must land in issue order even when the network
// scrambles; the final value is the last one written.
func TestOrderingAttrOnUnorderedNet(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, UnorderedNet: true, Seed: 11})
	var held int64
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(8)
			p.Send(1, 9999, tm.Encode())
			p.Recv(1, 1)
			got := p.Mem().Snapshot(region.Offset, 8)
			if got[0] != 200 {
				t.Errorf("final value %d, want the last ordered put's 200", got[0])
			}
			held = e.HeldOps.Value()
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(8)
		for i := 1; i <= 200; i++ {
			p.WriteLocal(src, 0, bytes.Repeat([]byte{byte(i)}, 8))
			if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrOrdering|AttrBlocking); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		p.Send(0, 1, nil)
	})
	if held == 0 {
		t.Log("note: scrambler never reordered the stream (legal but unusual)")
	}
}

// TestOrderFence: Order() guarantees puts issued after it apply after puts
// issued before it, on an unordered network, without per-op ordering.
func TestOrderFence(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, UnorderedNet: true, Seed: 13})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(8)
			p.Send(1, 9999, tm.Encode())
			p.Recv(1, 1)
			if got := p.Mem().Snapshot(region.Offset, 1)[0]; got != 2 {
				t.Errorf("final value %d, want 2 (the post-Order put)", got)
			}
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(8)
		for round := 0; round < 50; round++ {
			p.WriteLocal(src, 0, []byte{1})
			if _, err := e.Put(src, 1, datatype.Byte, tm, 0, 1, datatype.Byte, 0, comm, AttrNone); err != nil {
				t.Errorf("put: %v", err)
			}
			if err := e.Order(comm, 0); err != nil {
				t.Errorf("order: %v", err)
			}
			p.WriteLocal(src, 0, []byte{2})
			if _, err := e.Put(src, 1, datatype.Byte, tm, 0, 1, datatype.Byte, 0, comm, AttrNone); err != nil {
				t.Errorf("put: %v", err)
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Errorf("complete: %v", err)
			}
		}
		if e.FenceStalls.Value() == 0 {
			t.Error("Order on an unordered network should stall the next op at least once")
		}
		p.Send(0, 1, nil)
	})
}

// TestOrderIsFreeOnOrderedNet: on an ordered network Order must not stall
// anything.
func TestOrderIsFreeOnOrderedNet(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 1 {
			src := p.Alloc(8)
			for i := 0; i < 10; i++ {
				e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrNone)
				e.Order(comm, 0)
			}
			e.Complete(comm, 0)
			if e.FenceStalls.Value() != 0 {
				t.Errorf("ordered network took %d fence stalls, want 0", e.FenceStalls.Value())
			}
		}
		p.Barrier()
	})
}

func TestValidationErrors(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 64)
		if p.Rank() == 1 {
			src := p.Alloc(64)
			cases := []struct {
				name string
				err  error
			}{}
			try := func(name string, fn func() error) {
				cases = append(cases, struct {
					name string
					err  error
				}{name, fn()})
			}
			try("type mismatch", func() error {
				_, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Int32, 0, comm, AttrNone)
				return err
			})
			try("target overrun", func() error {
				_, err := e.Put(src, 8, datatype.Byte, tm, 60, 8, datatype.Byte, 0, comm, AttrNone)
				return err
			})
			try("origin overrun", func() error {
				_, err := e.Put(src, 128, datatype.Byte, tm, 0, 128, datatype.Byte, 0, comm, AttrNone)
				return err
			})
			try("wrong owner", func() error {
				bad := tm
				bad.Owner = 1 // descriptor claims rank 1, but trank 0 resolves to rank 0
				_, err := e.Put(src, 8, datatype.Byte, bad, 0, 8, datatype.Byte, 0, comm, AttrNone)
				return err
			})
			try("negative disp", func() error {
				_, err := e.Put(src, 8, datatype.Byte, tm, -1, 8, datatype.Byte, 0, comm, AttrNone)
				return err
			})
			try("axpy on bytes", func() error {
				_, err := e.AccumulateAxpy(2, src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrNone)
				return err
			})
			for _, c := range cases {
				if c.err == nil {
					t.Errorf("%s: expected an error", c.name)
				}
			}
		}
		p.Barrier()
	})
}

func TestCommLevelDefaultAttrs(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 8)
		if p.Rank() == 1 {
			e.SetCommAttrs(comm, AttrRemoteComplete)
			src := p.Alloc(8)
			req, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrBlocking)
			if err != nil {
				t.Errorf("put: %v", err)
				return
			}
			// The communicator default forced remote completion: acks were
			// generated.
			req.Wait()
			if e.AcksSent.Value() != 0 {
				// acks counted at target, not origin; check via target? We
				// instead assert the request completed strictly after a
				// round trip.
			}
			if req.CompletedAt() < 3000 {
				t.Errorf("completion at %d too early for remote completion", req.CompletedAt())
			}
		}
		p.Barrier()
	})
}

func TestRetractRejectsFurtherAccess(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, _ := e.ExposeNew(8)
			p.Send(1, 9999, tm.Encode())
			p.Recv(1, 1) // rank 1 did a successful put
			if err := e.Retract(tm); err != nil {
				t.Errorf("retract: %v", err)
			}
			p.Send(1, 2, nil)
			p.Recv(1, 3)
			if p.NIC().BadReq.Value() == 0 {
				t.Error("post-retract access not rejected")
			}
			return
		}
		enc, _ := p.Recv(0, 9999)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(8)
		if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrBlocking); err != nil {
			t.Errorf("put: %v", err)
		}
		e.Complete(comm, 0)
		p.Send(0, 1, nil)
		p.Recv(0, 2)
		if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrBlocking); err != nil {
			t.Errorf("put after retract should fail at the target, not the origin: %v", err)
		}
		e.Complete(comm, 0)
		p.Send(0, 3, nil)
	})
}

func TestAttrString(t *testing.T) {
	if AttrNone.String() != "none" {
		t.Error("AttrNone string")
	}
	s := (AttrOrdering | AttrAtomic | AttrBlocking).String()
	if s != "ordering|atomic|blocking" {
		t.Errorf("attr string %q", s)
	}
}

func TestOpTypeAccOpStrings(t *testing.T) {
	if OpPut.String() != "put" || OpGet.String() != "get" || OpAccumulate.String() != "accumulate" {
		t.Error("OpType strings")
	}
	for op, want := range map[AccOp]string{
		AccNone: "none", AccReplace: "replace", AccSum: "sum",
		AccProd: "prod", AccMin: "min", AccMax: "max", AccAxpy: "axpy",
	} {
		if op.String() != want {
			t.Errorf("AccOp %d = %q", op, op.String())
		}
	}
}

// TestSelfPut: a rank may target its own exposed memory; the transfer goes
// through the network loopback like any other.
func TestSelfPut(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 1})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm, region := e.ExposeNew(16)
		src := p.Alloc(16)
		p.WriteLocal(src, 0, bytes.Repeat([]byte{0x3C}, 16))
		if _, err := e.Put(src, 16, datatype.Byte, tm, 0, 16, datatype.Byte, 0, comm, AttrBlocking); err != nil {
			t.Fatalf("self put: %v", err)
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Fatalf("self complete: %v", err)
		}
		if got := p.Mem().Snapshot(region.Offset, 16); !bytes.Equal(got, bytes.Repeat([]byte{0x3C}, 16)) {
			t.Error("self put did not land")
		}
	})
}

// TestMechanismsProduceExactAtomicSums: under every serializer mechanism,
// concurrent atomic accumulates sum exactly.
func TestMechanismsProduceExactAtomicSums(t *testing.T) {
	for _, mech := range []serializer.Mechanism{serializer.MechThread, serializer.MechCoarseLock, serializer.MechProgress} {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			const origins = 4
			const iters = 50
			w := newWorld(t, runtime.Config{Ranks: origins + 1})
			runBounded(t, w, time.Minute, func(p *runtime.Proc) {
				e := Attach(p, Options{Atomicity: mech})
				comm := p.Comm()
				if p.Rank() == 0 {
					tm, region := e.ExposeNew(8)
					enc := tm.Encode()
					for r := 1; r <= origins; r++ {
						p.Send(r, 9999, enc)
					}
					if mech == serializer.MechProgress {
						for e.OpsApplied.Value() < int64(origins*iters) {
							e.Progress()
							pollYield()
						}
					}
					p.Barrier()
					got := int64(binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset, 8)))
					if got != origins*iters {
						t.Errorf("sum = %d, want %d", got, origins*iters)
					}
					return
				}
				enc, _ := p.Recv(0, 9999)
				tm, _ := DecodeTargetMem(enc)
				src := p.Alloc(8)
				one := make([]byte, 8)
				binary.LittleEndian.PutUint64(one, 1)
				p.WriteLocal(src, 0, one)
				for i := 0; i < iters; i++ {
					if _, err := e.Accumulate(AccSum, src, 1, datatype.Int64, tm, 0, 1, datatype.Int64, 0, comm, AttrAtomic|AttrBlocking); err != nil {
						t.Errorf("acc: %v", err)
						return
					}
				}
				if err := e.Complete(comm, 0); err != nil {
					t.Errorf("complete: %v", err)
				}
				p.Barrier()
			})
		})
	}
}

func pollYield() { gort.Gosched() }
