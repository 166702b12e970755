package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/trace"
)

// TestRankDeathErrorTaxonomy pins the error-surface contract of a rank
// death on every wait path at once: the blocking Complete, requests
// reaped through Wait/Err, OnDone callbacks, Select, sticky fast-fails
// on Put/Get/FetchAdd/Order, and the tiered Engine.Err — and the flight
// ring records the death exactly once, before any OnDone learns of it.
// Everywhere the death must surface as a wrapped ErrRankFailed that is
// disjoint from both ErrLinkFailed (the taxonomy's graceful-degradation
// tier) and ErrApplyFault — a caller switching on errors.Is gets exactly
// one true branch.
func TestRankDeathErrorTaxonomy(t *testing.T) {
	const (
		victim   = 1
		inflight = 5
	)
	w := newWorld(t, runtime.Config{
		Ranks: 2,
		Seed:  17,
		Faults: &simnet.FaultPlan{
			Seed:      171,
			RankKills: []simnet.RankKill{{Rank: victim, At: rdKillAt}},
		},
	})
	runBounded(t, w, 60*time.Second, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == victim {
			tm, _ := e.ExposeNew(64)
			p.Send(0, 9999, tm.Encode())
			return
		}
		enableFlight(t, e)
		enc, _ := p.Recv(victim, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		scratch := p.Alloc(8)

		// Drive put+Complete rounds into the black hole until the
		// death surfaces on the blocking path. Requests issued along
		// the way are reaped later through Wait/Err and OnDone.
		var mu sync.Mutex
		onDone := make(map[uint64][]error)
		recorded := make(map[uint64]int)
		var victims []*Request
		var blocking error
		for blocking == nil {
			for i := 0; i < inflight && blocking == nil; i++ {
				r, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, victim, comm, AttrRemoteComplete)
				if err != nil {
					blocking = err
					break
				}
				id := r.ID()
				r.OnDone(func(err error) {
					n := flightFaults(t, e, trace.KindRankDeath, victim, ErrRankFailed)
					mu.Lock()
					onDone[id] = append(onDone[id], err)
					recorded[id] = n
					mu.Unlock()
				})
				victims = append(victims, r)
			}
			if blocking == nil {
				blocking = e.Complete(comm, victim)
			}
		}
		assertRankFailedOnly(t, "blocking Complete (or submit fast-fail)", blocking)

		// Engine.Err tiers the death above link failures.
		assertRankFailedOnly(t, "Engine.Err", e.Err())

		// Every request issued before the death terminates — no
		// hangs — with the same wrapped sentinel, and its OnDone
		// fired exactly once with it.
		for _, r := range victims {
			r.Wait()
			if err := r.Err(); err != nil {
				assertRankFailedOnly(t, "Request.Err", err)
			}
		}
		mu.Lock()
		for _, r := range victims {
			if r.Err() == nil {
				continue // completed before the kill landed
			}
			errs := onDone[r.ID()]
			if len(errs) != 1 {
				t.Errorf("request %d: %d terminal callbacks, want exactly 1", r.ID(), len(errs))
				continue
			}
			assertRankFailedOnly(t, "OnDone", errs[0])
			if n := recorded[r.ID()]; n != 1 {
				t.Errorf("request %d: OnDone saw %d rank-death records in the flight ring, want 1 (evidence first)", r.ID(), n)
			}
		}
		mu.Unlock()

		// Sticky fast-fails: every submission surface refuses new
		// work toward the dead rank synchronously.
		if _, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, victim, comm, AttrNone); err == nil {
			t.Error("Put after death returned nil, want sticky fast-fail")
		} else {
			assertRankFailedOnly(t, "Put fast-fail", err)
		}
		if _, err := e.Get(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, victim, comm, AttrNone); err == nil {
			t.Error("Get after death returned nil, want sticky fast-fail")
		} else {
			assertRankFailedOnly(t, "Get fast-fail", err)
		}
		if _, err := e.FetchAdd(tm, 0, 1, victim, comm, AttrNone); err == nil {
			t.Error("FetchAdd after death returned nil, want sticky fast-fail")
		} else {
			assertRankFailedOnly(t, "FetchAdd fast-fail", err)
		}
		if err := e.Order(comm, victim); err == nil {
			t.Error("Order after death returned nil, want sticky fast-fail")
		} else {
			assertRankFailedOnly(t, "Order fast-fail", err)
		}

		// A counter arm on the dead target fails over to EvFault.
		if _, ev, err := e.Select(comm, OnConfirmed(victim, 1<<30)); err != nil {
			t.Errorf("select(confirmed): %v", err)
		} else {
			if ev.Kind != EvFault {
				t.Errorf("counter arm = kind %v, want EvFault", ev.Kind)
			}
			assertRankFailedOnly(t, "Select EvFault", ev.Err)
		}

		// The flight ring recorded the death exactly once, naming the rank.
		// The fan-out records it before failing anything, so it is there
		// by the time any error above surfaced.
		if n := flightFaults(t, e, trace.KindRankDeath, victim, ErrRankFailed); n != 1 {
			t.Errorf("flight ring holds %d rank-death records for one death, want exactly 1", n)
		}
	})
}

// assertRankFailedOnly checks one error against the taxonomy: it must
// wrap ErrRankFailed and must NOT claim the other sticky tiers.
func assertRankFailedOnly(t *testing.T, path string, err error) {
	t.Helper()
	if !errors.Is(err, ErrRankFailed) {
		t.Errorf("%s: %v does not wrap ErrRankFailed", path, err)
	}
	if errors.Is(err, ErrLinkFailed) {
		t.Errorf("%s: %v claims ErrLinkFailed too; the tiers must be disjoint", path, err)
	}
	if errors.Is(err, ErrApplyFault) {
		t.Errorf("%s: %v claims ErrApplyFault too; the tiers must be disjoint", path, err)
	}
}

// TestRankDeathSuspectRequiresGroundTruth pins the detection rule that
// keeps the taxonomy honest: retry-budget exhaustion alone (a broken
// link, both ends alive) must stay in the ErrLinkFailed tier — the
// membership service refuses to declare a rank dead when the simulated
// RAS ground truth says it is alive.
func TestRankDeathSuspectRequiresGroundTruth(t *testing.T) {
	w := newWorld(t, runtime.Config{
		Ranks: 2,
		Seed:  19,
		Faults: &simnet.FaultPlan{
			Seed:  191,
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
		enc, _ := p.Recv(1, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		scratch := p.Alloc(8)
		var failure error
		for failure == nil {
			if _, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 1, comm, AttrNone); err != nil {
				failure = err
				break
			}
			failure = e.Complete(comm, 1)
		}
		if !errors.Is(failure, ErrLinkFailed) {
			t.Errorf("broken link surfaced as %v, want wrapped ErrLinkFailed", failure)
		}
		if errors.Is(failure, ErrRankFailed) {
			t.Errorf("broken link escalated to ErrRankFailed with the peer alive: %v", failure)
		}
		if st := w.Members().State(1); st == runtime.StateDead {
			t.Error("membership declared a live rank dead on link evidence alone")
		}
	})
}
