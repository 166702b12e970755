package core

import (
	"bytes"
	"errors"
	gort "runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// The rank-death chaos harness (DESIGN.md §14): four compute ranks plus
// one spare, all replicated. Ranks 0, 1 and 3 write round-stamped
// patterns into disjoint slots of every other compute rank's region;
// rank 2 is a pure target. The kill plans blackhole rank 2 mid-run:
// survivors learn of the death only through retry-budget exhaustion
// (promoted to ErrRankFailed by the membership service), await the
// buddy's rebuild onto the spare, re-point the unchanged descriptor at
// the successor, and finish the remaining rounds there. The final bytes
// of every region — the rebuilt one read back from the spare — must
// equal the fault-free run's, byte for byte, under every plan of the
// seeded fault matrix (seeds 1001-1003, see faultchaos_test.go).
//
// The victim's deliberate buddy topology exercises every recovery role
// at once: rank 3 is the victim's buddy (promoter), rank 1 has the
// victim as ITS buddy (orphan: deferred completions flushed, degraded,
// then re-synced to the spare), and the spare resumes replicating to
// the promoter after the rebuild.

const (
	rdCompute = 4
	rdVictim  = 2
	rdSlot    = 8
	rdRounds  = 12
	// rdKillAt lands after exposure and descriptor exchange (first
	// microseconds) but well inside the write rounds.
	rdKillAt = vtime.Time(15 * time.Microsecond)

	rdTagDesc  = 8801
	rdTagDone  = 8802
	rdTagFin   = 8803
	rdTagReady = 8804
)

// rdWriters are the compute ranks that issue operations.
var rdWriters = []int{0, 1, 3}

// rdSlotOf maps a writer to its slot index within every region.
func rdSlotOf(writer int) int {
	for i, w := range rdWriters {
		if w == writer {
			return i
		}
	}
	panic("rankdeath: not a writer")
}

// rdKillPlans is the PR-4 fault matrix with a rank kill added to each
// plan: the same seeds, drops, dups, corruption and delays, plus rank 2
// crashing at rdKillAt and never restarting. The victim→buddy link stays
// fault-free until the kill: a retransmission is stamped a retry timeout
// (50 µs) after the first copy — past rdKillAt — so one dropped
// kReplExpose or initial snapshot would blackhole the mirror for good and
// turn the run into the no-replica death, which is
// TestRankDeathNoReplica's subject, not this matrix's ("kill lands after
// exposure").
func rdKillPlans() []struct {
	name string
	plan *simnet.FaultPlan
} {
	base := chaosPlans()
	out := make([]struct {
		name string
		plan *simnet.FaultPlan
	}, 0, len(base))
	for _, tc := range base {
		plan := *tc.plan
		plan.RankKills = []simnet.RankKill{{Rank: rdVictim, At: rdKillAt}}
		plan.Bursts = append(plan.Bursts[:len(plan.Bursts):len(plan.Bursts)], simnet.Burst{
			Link:  simnet.LinkKey{Src: rdVictim, Dst: rdVictim + 1},
			Until: rdKillAt,
		})
		out = append(out, struct {
			name string
			plan *simnet.FaultPlan
		}{tc.name, &plan})
	}
	return out
}

// rdAwaitReplica blocks until this rank mirrors an exposure of owner's —
// the announcement and the initial snapshot have both landed.
func rdAwaitReplica(e *Engine, owner int) {
	for {
		e.repl.mu.Lock()
		held := false
		for key, r := range e.repl.replicas {
			held = held || key.owner == owner && r.size > 0 && r.next > 1
		}
		e.repl.mu.Unlock()
		if held {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// rdPutComplete writes scratch's rdSlot bytes at disp of dst (served by
// world rank serving) and completes toward it.
func rdPutComplete(e *Engine, comm *runtime.Comm, scratch memsim.Region, dst TargetMem, serving, disp int) error {
	dst.Owner = serving
	if _, err := e.Put(scratch, rdSlot, datatype.Byte, dst, disp, rdSlot, datatype.Byte, serving, comm, AttrNone); err != nil {
		return err
	}
	return e.Complete(comm, serving)
}

// runBounded runs fn on every rank of w and fails the test, with every
// goroutine's stack, if the world has not finished within limit: a wedged
// detection or rebuild must diagnose itself, not hang the suite.
func runBounded(t *testing.T, w *runtime.World, limit time.Duration, fn func(p *runtime.Proc)) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("world: %v", err)
		}
	case <-time.After(limit):
		buf := make([]byte, 1<<22)
		t.Fatalf("world wedged for %v; goroutines:\n%s", limit, buf[:gort.Stack(buf, true)])
	}
}

// runRankDeath executes the workload under plan (nil = fault-free) and
// returns each compute region's final bytes indexed by original owner;
// with killed set, the victim's region is read back from its successor.
// mirrored says whether the plan lets the victim's mirror reach its buddy
// (see TestRankDeathNoReplica for the run where it does not).
func runRankDeath(t *testing.T, plan *simnet.FaultPlan, killed, mirrored bool) [][]byte {
	t.Helper()
	size := len(rdWriters) * rdSlot
	finals := make([][]byte, rdCompute)
	for i := range finals {
		finals[i] = make([]byte, size)
	}
	var deaths atomic.Int32
	w := newWorld(t, runtime.Config{Ranks: rdCompute, Spares: 1, Seed: 7, Faults: plan})
	runBounded(t, w, 90*time.Second, func(p *runtime.Proc) { rdRank(t, w, p, finals, &deaths, killed, mirrored) })
	if killed {
		if deaths.Load() == 0 {
			t.Fatal("no writer observed ErrRankFailed; the kill landed outside the workload")
		}
		if w.Net().FaultsBlackholed.Value() == 0 {
			t.Fatal("rank kill blackholed nothing")
		}
	}
	return finals
}

// rdRank is one rank's workload (see the file comment for the roles).
func rdRank(t *testing.T, w *runtime.World, p *runtime.Proc, finals [][]byte, deaths *atomic.Int32, killed, mirrored bool) {
	e := Attach(p, Options{})
	if err := e.EnableReplication(); err != nil {
		t.Errorf("enable replication: %v", err)
		panic("rankdeath: replication unavailable")
	}
	me := p.Rank()
	if p.IsSpare() {
		// Armed and idle; after the rebuild its NIC serves the redirected
		// traffic. Stays alive until writer 0 winds the run down.
		p.Recv(0, rdTagFin)
		return
	}
	comm := p.Comm()
	size := len(rdWriters) * rdSlot
	// The victim's mirror must be the first thing its NIC injects. The
	// rank function shares the injection lane with the agent's software
	// replies (probe answers, replica acks: 2 µs of origin overhead each),
	// so writers that reach their rounds before the victim's goroutine has
	// exposed back the lane up until the mirror departs past the kill
	// (seen: Now() = 0, first copy stamped 16.2 µs). So nobody else touches
	// the wire until the victim's (immortal) buddy holds the mirror — when
	// the plan lets it through — and releases the other writers.
	switch me {
	case rdVictim:
	case rdVictim + 1:
		if mirrored {
			rdAwaitReplica(e, rdVictim)
		}
		for _, r := range rdWriters {
			if r != me {
				p.Send(r, rdTagReady, nil)
			}
		}
	default:
		p.Recv(rdVictim+1, rdTagReady)
	}
	tm, region := e.ExposeNew(size)
	if me == rdVictim {
		// Pure target: applying (and replicating) happens on the NIC
		// agent, which keeps serving after the rank function returns —
		// until the kill blackholes the rank entirely. The victim sends
		// no descriptor: a rank that dies before its descriptor lands
		// would wedge receivers that have no failure signal to select
		// on, making bootstrap — not the RMA protocol — the thing under
		// test. Writers synthesize it below instead.
		return
	}
	enc := tm.Encode()
	for _, r := range rdWriters {
		if r != me {
			p.Send(r, rdTagDesc, enc)
		}
	}

	// Descriptors are plain values an application would distribute at job
	// launch; only the (immortal) writers exchange them over the wire.
	// Every compute rank's first and only exposure yields the same handle,
	// so the victim's descriptor is the writer's own with the owner
	// re-pointed — the cross-check below pins that symmetry.
	tms := map[int]TargetMem{me: tm}
	for i := 0; i < len(rdWriters)-1; i++ {
		enc, src := p.Recv(runtime.AnySource, rdTagDesc)
		dtm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Errorf("rank %d decode from %d: %v", me, src, err)
			panic("rankdeath: no descriptor")
		}
		if dtm.Handle != tm.Handle || dtm.Size != tm.Size {
			t.Errorf("rank %d: descriptor from %d is not symmetric (handle %d size %d, mine %d/%d)",
				me, src, dtm.Handle, dtm.Size, tm.Handle, tm.Size)
			panic("rankdeath: asymmetric exposure")
		}
		tms[src] = dtm
	}
	vtm := tm
	vtm.Owner = rdVictim
	tms[rdVictim] = vtm

	// cur maps each original owner to the rank currently serving its
	// region (the victim's successor after the rebuild). The victim is
	// targeted first each round so some origin always has in-flight
	// traffic toward it — the failure detector's food.
	cur := make(map[int]int, len(tms))
	for r := range tms {
		cur[r] = r
	}
	targets := []int{rdVictim}
	for _, r := range rdWriters {
		if r != me {
			targets = append(targets, r)
		}
	}
	disp := rdSlotOf(me) * rdSlot
	scratch := p.Alloc(rdSlot)
	observed := false
	// failover awaits the victim's successor and re-issues the scratch
	// slot there; the slot converges regardless of which rounds the replica
	// already held (last completed version wins).
	failover := func() {
		spare, err := w.Members().AwaitRebuilt(rdVictim)
		if err != nil {
			t.Errorf("rank %d: await rebuild: %v", me, err)
			panic("rankdeath: rebuild unavailable")
		}
		cur[rdVictim] = spare
		if err := rdPutComplete(e, comm, scratch, tms[rdVictim], spare, disp); err != nil {
			t.Errorf("rank %d: re-issued op to successor %d failed: %v", me, spare, err)
			panic("rankdeath: successor op failed")
		}
	}
	for round := 0; round < rdRounds; round++ {
		pattern := bytes.Repeat([]byte{byte(16*me + round)}, rdSlot)
		p.WriteLocal(scratch, 0, pattern)
		for _, tgt := range targets {
			err := rdPutComplete(e, comm, scratch, tms[tgt], cur[tgt], disp)
			if err == nil {
				continue
			}
			if tgt != rdVictim || cur[tgt] != rdVictim || !killed {
				t.Errorf("rank %d round %d: op to survivor %d failed: %v", me, round, cur[tgt], err)
				panic("rankdeath: survivor op failed")
			}
			// Acceptance criterion: the death surfaces as a wrapped
			// ErrRankFailed — never as the link-failure sentinel.
			if !errors.Is(err, ErrRankFailed) {
				t.Errorf("rank %d round %d: death surfaced as %v, want wrapped ErrRankFailed", me, round, err)
				panic("rankdeath: wrong sentinel")
			}
			if errors.Is(err, ErrLinkFailed) {
				t.Errorf("rank %d: rank death also claims ErrLinkFailed: %v", me, err)
			}
			if !observed {
				observed = true
				deaths.Add(1)
			}
			failover()
		}
	}

	if me != 0 {
		p.Send(0, rdTagDone, nil)
		return
	}

	// Writer 0 drains the other writers, settles the victim's successor,
	// reads back every region, and winds down the spare.
	for range []int{1, 3} {
		p.Recv(runtime.AnySource, rdTagDone)
	}
	if killed && cur[rdVictim] == rdVictim {
		// Degenerate timing: every round toward the victim completed
		// before the kill, so this writer never saw the death. One probe
		// op against the black hole must surface ErrRankFailed in bounded
		// time; then converge the slot on the successor.
		pattern := bytes.Repeat([]byte{byte(16*me + rdRounds - 1)}, rdSlot)
		p.WriteLocal(scratch, 0, pattern)
		err := rdPutComplete(e, comm, scratch, tms[rdVictim], rdVictim, disp)
		if err == nil || !errors.Is(err, ErrRankFailed) {
			t.Errorf("probe toward dead rank returned %v, want wrapped ErrRankFailed", err)
			panic("rankdeath: probe")
		}
		deaths.Add(1)
		failover()
	}
	landing := p.Alloc(size)
	for owner := 0; owner < rdCompute; owner++ {
		if owner == me {
			copy(finals[owner], p.Mem().Snapshot(region.Offset, size))
			continue
		}
		dst := tms[owner]
		dst.Owner = cur[owner]
		req, err := e.Get(landing, size, datatype.Byte, dst, 0, size, datatype.Byte, cur[owner], comm, AttrNone)
		if err != nil {
			t.Errorf("readback get from %d (serving %d): %v", owner, cur[owner], err)
			panic("rankdeath: readback")
		}
		req.Wait()
		if err := req.Err(); owner == rdVictim && !mirrored {
			// Nothing of the victim was rebuilt: the successor must say
			// so, not serve stale or zero bytes as if they were the region.
			if !errors.Is(err, ErrBadHandle) {
				t.Errorf("readback of the lost region (serving %d) returned %v, want wrapped ErrBadHandle", cur[owner], err)
			}
			continue
		} else if err != nil {
			t.Errorf("readback from %d (serving %d): %v", owner, cur[owner], err)
			panic("rankdeath: readback")
		}
		copy(finals[owner], p.Mem().Snapshot(landing.Offset, size))
	}
	p.Send(rdCompute, rdTagFin, nil) // the spare's world rank
}

// TestRankDeathChaosMatrix is the PR's acceptance test: under every
// seeded kill plan (go test -run TestRankDeathChaosMatrix -race;
// seeds 1001-1003 from chaosPlans), (a) the replicated regions converge
// byte-exactly to the fault-free baseline after the rebuild, (b) ops to
// surviving ranks complete without error throughout, and (c) origins
// targeting the dead rank get a wrapped ErrRankFailed in bounded time.
func TestRankDeathChaosMatrix(t *testing.T) {
	baseline := runRankDeath(t, nil, false, true)
	// Sanity: the fault-free run produced the analytically expected
	// bytes — every written slot holds its writer's final-round pattern,
	// a writer's own slot in its own region stays zero.
	size := len(rdWriters) * rdSlot
	for owner := 0; owner < rdCompute; owner++ {
		want := make([]byte, size)
		for _, wr := range rdWriters {
			if wr == owner {
				continue
			}
			copy(want[rdSlotOf(wr)*rdSlot:], bytes.Repeat([]byte{byte(16*wr + rdRounds - 1)}, rdSlot))
		}
		if !bytes.Equal(baseline[owner], want) {
			t.Fatalf("baseline region %d = %x, want %x", owner, baseline[owner], want)
		}
	}
	for _, tc := range rdKillPlans() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runRankDeath(t, tc.plan, true, true)
			for owner := 0; owner < rdCompute; owner++ {
				if !bytes.Equal(got[owner], baseline[owner]) {
					t.Errorf("region %d diverged from fault-free bytes after rank death:\n got %x\nwant %x", owner, got[owner], baseline[owner])
				}
			}
		})
	}
}

// TestRankDeathKillOnly runs the kill without any link faults: the
// cleanest reproduction of detect → promote → rebuild → re-target, and
// the one to start from when the matrix runs diverge.
func TestRankDeathKillOnly(t *testing.T) {
	baseline := runRankDeath(t, nil, false, true)
	plan := &simnet.FaultPlan{
		Seed:      4242,
		RankKills: []simnet.RankKill{{Rank: rdVictim, At: rdKillAt}},
	}
	got := runRankDeath(t, plan, true, true)
	for owner := 0; owner < rdCompute; owner++ {
		if !bytes.Equal(got[owner], baseline[owner]) {
			t.Errorf("region %d diverged from fault-free bytes after rank death:\n got %x\nwant %x", owner, got[owner], baseline[owner])
		}
	}
}

// TestRankDeathNoReplica is the deterministic reproducer of a death the
// buddy holds nothing for: the victim→buddy link drops everything, so
// neither the victim's kReplExpose nor its initial snapshot ever lands,
// and when the victim dies its buddy has no replica to promote. The run
// must still finish in bounded time with the documented outcome
// (DESIGN.md §14): the buddy binds the spare and completes the rebuild
// with whatever it holds — here nothing — so AwaitRebuilt returns the
// successor to every survivor, and reading the lost region back fails
// with ErrBadHandle. The buddy is a writer: its relay acknowledgements
// from the victim are dropped too, so its retry budget detects the death.
func TestRankDeathNoReplica(t *testing.T) {
	runRankDeath(t, &simnet.FaultPlan{
		Seed:      77,
		Links:     map[simnet.LinkKey]simnet.LinkFaults{{Src: rdVictim, Dst: rdVictim + 1}: {Drop: 1}},
		RankKills: []simnet.RankKill{{Rank: rdVictim, At: rdKillAt}},
	}, true, false)
}
