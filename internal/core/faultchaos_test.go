package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// The seeded chaos harness: the workloads below are byte-deterministic
// regardless of delivery order (disjoint put slots finalized by a
// Complete per round, plus commutative accumulate sums), so a run under
// any fault plan must converge to the exact bytes of the fault-free run.
// Each faulted plan carries an early burst window that drops everything
// on one origin→target link, guaranteeing the relay retransmits
// (net.retries > 0) — the retransmit stamps escape the window long
// before the retry budget runs out.

// chaosPlans is the fault matrix shared by the chaos workloads.
func chaosPlans() []struct {
	name string
	plan *simnet.FaultPlan
} {
	burst := func() []simnet.Burst {
		return []simnet.Burst{{
			Link:   simnet.LinkKey{Src: 1, Dst: 0},
			From:   0,
			Until:  vtime.Time(20 * time.Microsecond),
			Faults: simnet.LinkFaults{Drop: 1},
		}}
	}
	return []struct {
		name string
		plan *simnet.FaultPlan
	}{
		{"drop", &simnet.FaultPlan{
			Seed:    1001,
			Default: simnet.LinkFaults{Drop: 0.08},
			Bursts:  burst(),
		}},
		{"drop+dup", &simnet.FaultPlan{
			Seed:    1002,
			Default: simnet.LinkFaults{Drop: 0.05, Dup: 0.15},
			Bursts:  burst(),
		}},
		{"drop+dup+delay+corrupt", &simnet.FaultPlan{
			Seed: 1003,
			Default: simnet.LinkFaults{
				Drop: 0.04, Dup: 0.08, Corrupt: 0.04,
				Delay: 0.2, DelayBy: 5 * time.Microsecond,
			},
			Bursts: burst(),
		}},
	}
}

const (
	fcWriters = 7
	fcSlot    = 8
	fcRounds  = 10
)

// runSevenWriter runs 7 origins hammering one target — each origin owns
// a disjoint put slot (finalized per round) and a disjoint accumulate
// slot (commutative sum) — and returns the target's final exposed bytes.
// topts configures the target rank's engine (the origins always attach
// with defaults), so the same workload can run on the serial and the
// sharded apply engine.
func runSevenWriter(t *testing.T, plan *simnet.FaultPlan, topts Options) []byte {
	t.Helper()
	w := newWorld(t, runtime.Config{Ranks: fcWriters + 1, Seed: 7, Faults: plan})
	size := 2 * fcWriters * fcSlot
	final := make([]byte, size)
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		opts := Options{}
		if p.Rank() == 0 {
			opts = topts
		}
		e := Attach(p, opts)
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
			panic("faultchaos: no descriptor")
		}
		putSlot := (p.Rank() - 1) * fcSlot
		accSlot := fcWriters*fcSlot + putSlot
		scratch := p.Alloc(fcSlot)
		for round := 0; round < fcRounds; round++ {
			// The put slot converges to the last round's pattern because
			// a Complete separates the rounds.
			pattern := bytes.Repeat([]byte{byte(16*p.Rank() + round)}, fcSlot)
			p.WriteLocal(scratch, 0, pattern)
			if _, err := e.Put(scratch, fcSlot, datatype.Byte, tm, putSlot, fcSlot, datatype.Byte, 0, comm, AttrNone); err != nil {
				t.Errorf("rank %d round %d put: %v", p.Rank(), round, err)
				panic("faultchaos: put failed")
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Errorf("rank %d round %d complete(put): %v", p.Rank(), round, err)
				panic("faultchaos: complete failed")
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(1000*p.Rank()+round))
			p.WriteLocal(scratch, 0, b[:])
			if _, err := e.Accumulate(AccSum, scratch, 1, datatype.Int64, tm, accSlot, 1, datatype.Int64, 0, comm, AttrAtomic); err != nil {
				t.Errorf("rank %d round %d acc: %v", p.Rank(), round, err)
				panic("faultchaos: acc failed")
			}
			if err := e.Complete(comm, 0); err != nil {
				t.Errorf("rank %d round %d complete(acc): %v", p.Rank(), round, err)
				panic("faultchaos: complete failed")
			}
		}
		p.Barrier()
	})
	return final
}

// TestFaultChaosSevenWriter asserts byte-exact convergence of the
// 7-writer contention workload across the whole fault matrix, with
// guaranteed retransmissions in every faulted run.
func TestFaultChaosSevenWriter(t *testing.T) {
	baseline := runSevenWriter(t, nil, Options{})
	// Sanity: the fault-free run produced the analytically expected bytes.
	for r := 1; r <= fcWriters; r++ {
		wantPut := bytes.Repeat([]byte{byte(16*r + fcRounds - 1)}, fcSlot)
		if got := baseline[(r-1)*fcSlot : r*fcSlot]; !bytes.Equal(got, wantPut) {
			t.Fatalf("baseline writer %d put slot = %x, want %x", r, got, wantPut)
		}
		var wantSum int64
		for round := 0; round < fcRounds; round++ {
			wantSum += int64(1000*r + round)
		}
		got := int64(binary.LittleEndian.Uint64(baseline[fcWriters*fcSlot+(r-1)*fcSlot:]))
		if got != wantSum {
			t.Fatalf("baseline writer %d acc slot = %d, want %d", r, got, wantSum)
		}
	}
	for _, tc := range chaosPlans() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runSevenWriter(t, tc.plan, Options{})
			if !bytes.Equal(got, baseline) {
				t.Fatalf("faulted run diverged from fault-free bytes:\n got %x\nwant %x", got, baseline)
			}
		})
	}
}

// TestFaultChaosSevenWriterSharded repeats the 7-writer matrix with the
// target running the sharded apply engine (4 shards over a 112-byte
// exposure, so the 8-byte put slots straddle shard boundaries and
// exercise the designated-shard path, plus atomic accumulates taking the
// serializer bypass) and asserts byte-exact convergence with the serial
// engine's fault-free bytes — same plans, same seeds.
func TestFaultChaosSevenWriterSharded(t *testing.T) {
	sharded := Options{ApplyShards: 4, ApplyWorkers: 4}
	baseline := runSevenWriter(t, nil, Options{})
	if got := runSevenWriter(t, nil, sharded); !bytes.Equal(got, baseline) {
		t.Fatalf("fault-free sharded run diverged from serial bytes:\n got %x\nwant %x", got, baseline)
	}
	for _, tc := range chaosPlans() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runSevenWriter(t, tc.plan, sharded)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("faulted sharded run diverged from serial fault-free bytes:\n got %x\nwant %x", got, baseline)
			}
		})
	}
}

const (
	stRanks = 4
	stHalo  = 16
)

// runStencil runs a ring halo exchange: every rank puts its boundary
// pattern into both neighbours' halo slots each round, synchronized by
// CompleteCollective. Returns the concatenated final halos of all ranks.
func runStencil(t *testing.T, plan *simnet.FaultPlan) []byte {
	t.Helper()
	w := newWorld(t, runtime.Config{Ranks: stRanks, Seed: 13, Faults: plan})
	final := make([]byte, stRanks*2*stHalo)
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		me := p.Rank()
		left := (me + stRanks - 1) % stRanks
		right := (me + 1) % stRanks
		tm, region := e.ExposeNew(2 * stHalo) // [0,stHalo): from left; rest: from right
		enc := tm.Encode()
		p.Send(left, 5001, enc)
		p.Send(right, 5002, enc)
		encRight, _ := p.Recv(right, 5001) // right neighbour's descriptor
		encLeft, _ := p.Recv(left, 5002)
		tmRight, err := DecodeTargetMem(encRight)
		if err != nil {
			t.Errorf("decode right: %v", err)
			panic("stencil: no descriptor")
		}
		tmLeft, err := DecodeTargetMem(encLeft)
		if err != nil {
			t.Errorf("decode left: %v", err)
			panic("stencil: no descriptor")
		}
		scratch := p.Alloc(stHalo)
		for round := 0; round < fcRounds; round++ {
			pattern := bytes.Repeat([]byte{byte(32*me + round)}, stHalo)
			p.WriteLocal(scratch, 0, pattern)
			// I am my right neighbour's left source and vice versa.
			if _, err := e.Put(scratch, stHalo, datatype.Byte, tmRight, 0, stHalo, datatype.Byte, right, comm, AttrNone); err != nil {
				t.Errorf("rank %d round %d put right: %v", me, round, err)
				panic("stencil: put failed")
			}
			if _, err := e.Put(scratch, stHalo, datatype.Byte, tmLeft, stHalo, stHalo, datatype.Byte, left, comm, AttrNone); err != nil {
				t.Errorf("rank %d round %d put left: %v", me, round, err)
				panic("stencil: put failed")
			}
			if err := e.CompleteCollective(comm); err != nil {
				t.Errorf("rank %d round %d collective: %v", me, round, err)
				panic("stencil: collective failed")
			}
		}
		copy(final[me*2*stHalo:], p.Mem().Snapshot(region.Offset, 2*stHalo))
	})
	return final
}

// TestFaultChaosStencil asserts the ring halo exchange converges
// byte-exactly under the fault matrix.
func TestFaultChaosStencil(t *testing.T) {
	baseline := runStencil(t, nil)
	for me := 0; me < stRanks; me++ {
		left := (me + stRanks - 1) % stRanks
		right := (me + 1) % stRanks
		halo := baseline[me*2*stHalo : (me+1)*2*stHalo]
		wantL := bytes.Repeat([]byte{byte(32*left + fcRounds - 1)}, stHalo)
		wantR := bytes.Repeat([]byte{byte(32*right + fcRounds - 1)}, stHalo)
		if !bytes.Equal(halo[:stHalo], wantL) || !bytes.Equal(halo[stHalo:], wantR) {
			t.Fatalf("baseline rank %d halo = %x, want %x|%x", me, halo, wantL, wantR)
		}
	}
	for _, tc := range chaosPlans() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runStencil(t, tc.plan)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("faulted run diverged from fault-free bytes:\n got %x\nwant %x", got, baseline)
			}
		})
	}
}

// TestFaultChaosRetriesObserved pins the "net.retries > 0" acceptance
// criterion directly: the guaranteed drop burst forces retransmissions
// and the run still converges.
func TestFaultChaosRetriesObserved(t *testing.T) {
	plan := chaosPlans()[0].plan
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 7, Faults: plan})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		tm := shipTM(p, e, 64)
		if p.Rank() == 0 {
			p.Barrier()
			return
		}
		scratch := p.Alloc(8)
		p.WriteLocal(scratch, 0, []byte("12345678"))
		if _, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrNone); err != nil {
			t.Errorf("put: %v", err)
			panic("retries: put failed")
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
			panic("retries: complete failed")
		}
		p.Barrier()
	})
	if w.Net().Retries.Value() == 0 {
		t.Fatal("guaranteed drop burst produced no retransmissions")
	}
	if w.Net().FaultsDropped.Value() == 0 {
		t.Fatal("fault plan injected nothing")
	}
}

// TestLinkFailedSurfacesFromComplete: when a link drops everything
// forever and the retry budget is tiny, Complete must return a wrapped
// ErrLinkFailed within bounded time — graceful degradation, not a hang —
// and the engine reports the sticky failure via Err().
func TestLinkFailedSurfacesFromComplete(t *testing.T) {
	w := newWorld(t, runtime.Config{
		Ranks: 2,
		Faults: &simnet.FaultPlan{
			Seed:  31,
			Links: map[simnet.LinkKey]simnet.LinkFaults{{Src: 0, Dst: 1}: {Drop: 1}},
		},
	})
	runBounded(t, w, 15*time.Second, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 1 {
			// The victim target: expose, ship the descriptor over the
			// healthy 1→0 link, and return (the NIC keeps serving).
			tm, _ := e.ExposeNew(64)
			p.Send(0, 9999, tm.Encode())
			return
		}
		enc, _ := p.Recv(1, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		scratch := p.Alloc(8)
		if _, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 1, comm, AttrNone); err != nil && !errors.Is(err, ErrLinkFailed) {
			t.Errorf("put: %v", err)
			return
		}
		err = e.Complete(comm, 1)
		if !errors.Is(err, ErrLinkFailed) {
			t.Errorf("Complete returned %v, want wrapped ErrLinkFailed", err)
		}
		if e.Err() == nil {
			t.Error("Engine.Err() nil after link failure")
		}
	})
}
