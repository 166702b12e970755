// Failover: survive a rank death with buddy replication and a spare.
//
// Four simulated processes start: three compute ranks and one spare.
// Every compute rank exposes an 8-byte slot and mirrors it to a buddy —
// rank (r+1) mod 3 — because the session is opened with
// rma.WithReplication(). The fault plan crash-injects rank 1 mid-run:
// from the kill instant the simulated wire blackholes every frame to or
// from it, exactly as a died process looks to the network.
//
// Rank 0 hammers versioned writes into rank 1's slot until the failure
// detector declares the rank dead and the put fails with a wrapped
// rma.ErrRankFailed (never rma.ErrLinkFailed — a dead peer is not a
// flaky link). It then waits for the recovery to finish: rank 1's buddy
// (rank 2) replays its replica onto the spare, which re-exposes the
// memory at the original handle. AwaitRebuilt names the successor, the
// descriptor is retargeted by owner only, and a read-back shows the
// last completed write survived the crash byte for byte.
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"time"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

func main() {
	const (
		ranks  = 3
		victim = 1
		slot   = 8
	)
	// Crash rank 1 once the workload is in full swing. The plan is part
	// of the world's configuration, so the run is deterministic: same
	// seed, same kill, same recovery.
	plan := &rma.FaultPlan{
		Seed:      7,
		RankKills: []rma.RankKill{{Rank: victim, At: vtime.Time(50 * time.Microsecond)}},
	}
	world := runtime.NewWorld(runtime.Config{Ranks: ranks, Spares: 1, Seed: 7, Faults: plan})
	defer world.Close()

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithReplication())

		if p.IsSpare() {
			// The spare's NIC does all the work: it idles until the
			// promoting buddy replays the dead rank's regions onto it.
			return
		}

		// Every compute rank exposes one slot; replication mirrors it to
		// the buddy transparently from here on.
		tm, _ := s.Expose(slot)

		if p.Rank() == victim {
			// Ship the descriptor, then serve puts from the NIC until
			// the crash. The process function has nothing left to
			// do — dying is handled by the fault plan.
			p.Send(0, 0, tm.Encode())
			return
		}
		if p.Rank() != 0 {
			// The buddy also serves passively; promotion runs when the
			// detector declares the victim dead.
			return
		}

		enc, _ := p.Recv(victim, 0)
		vtm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			log.Fatal(err)
		}

		// Hammer versioned writes into the victim until the death
		// surfaces. Each round only counts once Complete returns: by
		// then the write is applied AND its replica is acknowledged by
		// the buddy, so every completed round is crash-durable.
		src := p.Alloc(slot)
		round := 0
		var failed error
		for failed == nil {
			round++
			p.WriteLocal(src, 0, bytes.Repeat([]byte{byte(round)}, slot))
			if _, err := s.Put(src, slot, rma.Byte, vtm, 0); err != nil {
				failed = err
				break
			}
			failed = s.Complete(vtm.Owner)
		}
		if !errors.Is(failed, rma.ErrRankFailed) {
			log.Fatalf("death surfaced as %v, want wrapped rma.ErrRankFailed", failed)
		}
		lastGood := round - 1 // the failed round never completed
		fmt.Printf("rank 0: rank %d died during round %d: %v\n", victim, round, failed)

		// Recovery: the buddy promotes its replica onto the spare, which
		// re-exposes the memory at the original handle. Only the owner
		// in the descriptor changes.
		succ, err := s.AwaitRebuilt(victim)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rank 0: spare %d rebuilt rank %d's memory\n", succ, victim)

		vtm.Owner = succ
		got := p.Alloc(slot)
		if _, err := s.Get(got, slot, rma.Byte, vtm, 0, rma.WithBlocking()); err != nil {
			log.Fatal(err)
		}
		// Completed rounds are durable; the round whose Complete failed is
		// indeterminate (its write may or may not have reached the buddy
		// before the crash). Either way the slot must hold one whole
		// round, never torn bytes.
		have := p.ReadLocal(got, 0, slot)
		if !bytes.Equal(have, bytes.Repeat([]byte{byte(lastGood)}, slot)) &&
			!bytes.Equal(have, bytes.Repeat([]byte{byte(round)}, slot)) {
			log.Fatalf("spare serves %v, want round %d or %d bytes", have, lastGood, round)
		}
		fmt.Printf("rank 0: spare serves round %d bytes intact: %v\n", have[0], have)

		// The session keeps working against live peers and the spare;
		// only the dead rank stays sticky.
		p.WriteLocal(src, 0, bytes.Repeat([]byte{0xAA}, slot))
		if _, err := s.Put(src, slot, rma.Byte, vtm, 0); err != nil {
			log.Fatal(err)
		}
		if err := s.Complete(succ); err != nil {
			log.Fatal(err)
		}
		fmt.Println("rank 0: writes to the successor complete normally")
	})
	if err != nil {
		log.Fatal(err)
	}
}
