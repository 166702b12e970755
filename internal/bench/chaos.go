package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"mpi3rma/internal/core"
	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/vtime"
)

// The chaos experiment (rmabench -exp chaos): the seven-writer contention
// workload runs under a matrix of fault plans and must converge to the
// exact bytes of the fault-free run. Unlike the Figure 2 cells the
// writers own disjoint slots — a put slot finalized per round and an
// accumulate slot summed commutatively — so the final memory is
// byte-deterministic no matter how the relay reorders retransmissions.
//
// ChaosSeed is the one documented seed of the whole run: it seeds the
// world, and the fault draws hash it. Reproduce a run by reproducing the
// seed (it is printed in the result notes).
const ChaosSeed = 4242

const (
	chaosBenchWriters = 7
	chaosBenchSlot    = 64
	chaosBenchRounds  = 20
)

// chaosBenchSeries is the fault matrix swept by RunChaos.
var chaosBenchSeries = []struct {
	Name   string
	Faults simnet.LinkFaults
}{
	// Every series carries the guaranteed early drop burst on top of
	// these default rates; the byte-exact reference is a separate run
	// with no plan at all.
	{"burst-only", simnet.LinkFaults{}},
	{"drop 8%", simnet.LinkFaults{Drop: 0.08}},
	{"drop 5% + dup 15%", simnet.LinkFaults{Drop: 0.05, Dup: 0.15}},
	{"drop+dup+delay+corrupt", simnet.LinkFaults{
		Drop: 0.04, Dup: 0.08, Corrupt: 0.04,
		Delay: 0.2, DelayBy: 5 * time.Microsecond,
	}},
}

// chaosPlan builds one series' fault plan: the configured default rates
// plus a burst window that drops everything on the 1→0 link early in
// virtual time, guaranteeing at least one retransmission per run.
func chaosPlan(lf simnet.LinkFaults) *simnet.FaultPlan {
	return &simnet.FaultPlan{
		Seed:    ChaosSeed,
		Default: lf,
		Bursts: []simnet.Burst{{
			Link:   simnet.LinkKey{Src: 1, Dst: 0},
			From:   0,
			Until:  vtime.Time(20 * time.Microsecond),
			Faults: simnet.LinkFaults{Drop: 1},
		}},
	}
}

// chaosOutcome is one cell of the chaos matrix.
type chaosOutcome struct {
	Row   Row
	Final []byte
	Retries, RetransmitBytes, DupDropped,
	CorruptRejected, FaultsInjected int64
}

// runChaosCell drives the disjoint-slot seven-writer workload under one
// fault plan (nil = fault-free) and returns the target's final bytes
// plus the relay counters.
func runChaosCell(plan *simnet.FaultPlan) chaosOutcome {
	w := runtime.NewWorld(runtime.Config{
		Ranks:  chaosBenchWriters + 1,
		Seed:   ChaosSeed,
		Faults: plan,
	})
	defer w.Close()
	size := 2 * chaosBenchWriters * chaosBenchSlot
	out := chaosOutcome{Final: make([]byte, size)}
	var meas measure
	err := w.Run(func(p *runtime.Proc) {
		e := core.Attach(p, core.Options{})
		// Every chaos rank flies with the recorder armed: if an injected
		// fault ever escalates to a sticky failure, the postmortem (ring
		// of recent relay/apply events plus per-rank health) lands in
		// RMA_DIAG_DIR — the directory CI uploads when `make chaos`
		// fails — or the system temp dir.
		e.EnableFlightRecorder(telemetry.FlightConfig{Dir: os.Getenv("RMA_DIAG_DIR")})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(size)
			enc := tm.Encode()
			for r := 1; r <= chaosBenchWriters; r++ {
				p.Send(r, 0, enc)
			}
			p.Barrier()
			copy(out.Final, p.Mem().Snapshot(region.Offset, size))
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := core.DecodeTargetMem(enc)
		if err != nil {
			panic(err)
		}
		putSlot := (p.Rank() - 1) * chaosBenchSlot
		accSlot := chaosBenchWriters*chaosBenchSlot + putSlot
		scratch := p.Alloc(chaosBenchSlot)
		startVT := p.Now()
		for round := 0; round < chaosBenchRounds; round++ {
			pattern := bytes.Repeat([]byte{byte(16*p.Rank() + round)}, chaosBenchSlot)
			p.WriteLocal(scratch, 0, pattern)
			if _, err := e.Put(scratch, chaosBenchSlot, datatype.Byte, tm, putSlot, chaosBenchSlot, datatype.Byte, 0, comm, core.AttrNone); err != nil {
				panic(err)
			}
			if err := e.Complete(comm, 0); err != nil {
				panic(err)
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(1000*p.Rank()+round))
			p.WriteLocal(scratch, 0, b[:])
			if _, err := e.Accumulate(core.AccSum, scratch, 1, datatype.Int64, tm, accSlot, 1, datatype.Int64, 0, comm, core.AttrAtomic); err != nil {
				panic(err)
			}
			if err := e.Complete(comm, 0); err != nil {
				panic(err)
			}
		}
		meas.record(p.Now() - startVT)
		p.Barrier()
	})
	if err != nil {
		panic(err)
	}
	out.Row = meas.row("", chaosBenchSlot)
	out.Retries = w.Net().Retries.Value()
	out.RetransmitBytes = w.Net().RetransmitBytes.Value()
	out.DupDropped = w.Net().DupDropped.Value()
	out.CorruptRejected = w.Net().CorruptRejected.Value()
	out.FaultsInjected = w.Net().FaultsDropped.Value() + w.Net().FaultsDuplicated.Value() +
		w.Net().FaultsDelayed.Value() + w.Net().FaultsCorrupted.Value()
	return out
}

// RunChaos sweeps the chaos fault matrix and checks byte-exact
// convergence of every faulted run against the fault-free bytes.
func RunChaos() Result {
	res := Result{
		Name: "chaos",
		Title: fmt.Sprintf("Chaos: 7-writer disjoint-slot workload under a fault matrix (%d rounds, seed %d)",
			chaosBenchRounds, ChaosSeed),
	}
	baseline := runChaosCell(nil)
	var ok = true
	for _, s := range chaosBenchSeries {
		res.SeriesOrder = append(res.SeriesOrder, s.Name)
		out := runChaosCell(chaosPlan(s.Faults))
		row := out.Row
		row.Series = s.Name
		row.Extra["retries"] = float64(out.Retries)
		row.Extra["retransmit_bytes"] = float64(out.RetransmitBytes)
		row.Extra["dup_dropped"] = float64(out.DupDropped)
		row.Extra["corrupt_rejected"] = float64(out.CorruptRejected)
		row.Extra["faults_injected"] = float64(out.FaultsInjected)
		res.Add(row)
		if !bytes.Equal(out.Final, baseline.Final) {
			res.Notef("FAIL: series %q diverged from the fault-free bytes", s.Name)
			ok = false
		}
		if out.Retries == 0 {
			res.Notef("FAIL: series %q saw no retransmissions despite the guaranteed drop burst", s.Name)
			ok = false
		}
	}
	if ok {
		res.Notef("PASS: all %d faulted series converged byte-exactly with the fault-free run, with net.retries > 0", len(chaosBenchSeries))
	}
	res.Notef("seed %d drives the fault draws; rerun with the same seed to reproduce the injected fault sequence", ChaosSeed)
	return res
}
