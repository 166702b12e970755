package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/trace"
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

	rdTagDesc   = 8801
	rdTagDone   = 8802
	rdTagFin    = 8803
	rdTagReady  = 8804
	rdTagMirror = 8805
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
// the announcement and the initial snapshot have both landed. The owner
// reports its exposure with rdMirrored; the link delivers the mirror
// before the report, so the replica is held once the report is.
func rdAwaitReplica(t *testing.T, p *runtime.Proc, e *Engine, owner int) {
	p.Recv(owner, rdTagMirror)
	e.repl.mu.Lock()
	held := false
	for key, r := range e.repl.replicas {
		held = held || key.owner == owner && r.size > 0 && r.versions.Base() > 0
	}
	e.repl.mu.Unlock()
	if !held {
		t.Errorf("rank %d: rank %d reported its exposure, but no replica of it is held", p.Rank(), owner)
	}
}

// rdMirrored is the owner's side of rdAwaitReplica: its exposure's mirror
// is on the wire to buddy.
func rdMirrored(p *runtime.Proc, buddy int) { p.Send(buddy, rdTagMirror, nil) }

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
// attached engine's health report (what each rank is waiting for, whom it
// believes alive) and every goroutine's stack, if the world has not
// finished within limit: a wedged detection or rebuild must diagnose
// itself, not hang the suite. It reports with Errorf, so it may run off
// the test goroutine.
func runBounded(t *testing.T, w *runtime.World, limit time.Duration, fn func(p *runtime.Proc)) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("world: %v", err)
		}
	case <-time.After(limit):
		var health bytes.Buffer
		for r := 0; r < w.TotalRanks(); r++ {
			if e := Attached(w.Proc(r)); e != nil {
				js, _ := json.Marshal(e.Health()) // a report of plain fields cannot fail to marshal
				fmt.Fprintf(&health, "%s\n", js)
			}
		}
		buf := make([]byte, 1<<22)
		t.Errorf("world wedged for %v; health:\n%sgoroutines:\n%s", limit, health.Bytes(), buf[:gort.Stack(buf, true)])
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
	// rank function shares the injection lane with its NIC's software
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
			rdAwaitReplica(t, p, e, rdVictim)
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
	if me == rdVictim && mirrored {
		rdMirrored(p, rdVictim+1)
	}
	if me == rdVictim {
		// Pure target: applying (and replicating) happens in the NIC's
		// handlers, which keep serving after the rank function returns —
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
		spare, err := w.Members().AwaitRebuilt(p, rdVictim)
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

// The kill-instant mini-sweep: a wait that rides delivery counters must
// come back when its target dies in the window the relay cannot see — the
// victim's NIC admitted (and relay-acked) the operation, and the rank died
// before its engine reported the delivery counter, which under replication
// waits for the buddy's acknowledgement. Nothing is then in flight toward
// the victim, so only the quiet world's bait ping can find the death: the
// wait has to be a surface the pings read, and the ping has to be stamped
// late enough in virtual time to meet a rank that died after the waiter's
// clock stopped.

// ksWaits are the counter-riding waits under test.
var ksWaits = map[string]func(e *Engine, comm *runtime.Comm) error{
	"Complete":        func(e *Engine, comm *runtime.Comm) error { return e.Complete(comm, rdVictim) },
	"SelectQuiescent": func(e *Engine, comm *runtime.Comm) error { return selectErr(e, comm, OnQuiescent(rdVictim)) },
	"SelectConfirmed": func(e *Engine, comm *runtime.Comm) error {
		return selectErr(e, comm, OnConfirmed(rdVictim, e.PairCounters(rdVictim).Sent))
	},
}

// ksRun builds the 4 + 1 replicated world, kills the victim at killAt (0 =
// never), has rank 0 — the single origin — issue one notified put (or,
// batched, four puts and a Flush) toward the victim and then wait. It
// returns the operation's modelled arrival at the victim (the B of its
// issue or batch trace event) and what issue or wait reported; a world
// that wedges has failed the test through runBounded.
func ksRun(t *testing.T, batched bool, wait func(*Engine, *runtime.Comm) error, killAt vtime.Time) (arrive vtime.Time, werr error) {
	plan := &simnet.FaultPlan{Seed: 1201}
	if killAt > 0 {
		plan.RankKills = []simnet.RankKill{{Rank: rdVictim, At: killAt}}
	}
	var opts Options
	if batched {
		opts.BatchOps = 4
	}
	w := newWorld(t, runtime.Config{Ranks: rdCompute, Spares: 1, Seed: 7, Faults: plan})
	runBounded(t, w, 10*time.Second, func(p *runtime.Proc) {
		e := Attach(p, opts)
		if err := e.EnableReplication(); err != nil {
			t.Errorf("enable replication: %v", err)
			return
		}
		switch p.Rank() {
		case rdVictim:
			tm, _ := e.ExposeNew(64)
			p.Send(0, rdTagDesc, tm.Encode())
		case 0:
			ring := trace.New(0)
			e.SetTracer(ring)
			enc, _ := p.Recv(rdVictim, rdTagDesc)
			tm, err := DecodeTargetMem(enc)
			if err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			comm, scratch := p.Comm(), p.Alloc(8)
			attrs := AttrNotify
			if batched {
				attrs = AttrNone // an aggregate always notifies
			}
			var reqs []*Request
			for i := 0; i < max(1, opts.BatchOps) && werr == nil; i++ {
				var req *Request
				if req, werr = e.Put(scratch, 8, datatype.Byte, tm, 8*i, 8, datatype.Byte, rdVictim, comm, attrs); req != nil {
					reqs = append(reqs, req)
				}
			}
			e.Flush()
			for _, ev := range ring.Snapshot() {
				if ev.Kind == trace.KindIssue || ev.Kind == trace.KindBatch {
					arrive = vtime.Time(ev.B)
				}
			}
			if werr == nil {
				werr = wait(e, comm)
			}
			// Each put completed locally; a failure can only be the kill.
			for _, req := range reqs {
				if err := req.Err(); err != nil && !errors.Is(err, ErrRankFailed) {
					t.Errorf("put to the victim failed with %v, want nil or wrapped ErrRankFailed", err)
				}
			}
		}
	})
	return arrive, werr
}

// TestRankKillInstantSweep kills the victim at the operation's arrival plus
// each offset, for each wait and each issue path, and asks only that the
// wait returns within runBounded's limit, with nil or the wrapped
// ErrRankFailed. Which of the two is not asserted: the arrival instant is
// taken from a fault-free pass of the same world, and it moves between
// passes with host scheduling before the first put, so a kill may land on
// either side of the delivery report — and which rank's budget exhaustion
// confirms the death first depends on host scheduling too. The rows of one
// issue path run side by side, each in its own world.
func TestRankKillInstantSweep(t *testing.T) {
	for _, batched := range []bool{false, true} {
		arrive, err := ksRun(t, batched, ksWaits["Complete"], 0)
		if err != nil || arrive == 0 {
			t.Fatalf("batched=%v, fault-free pass: arrival %d, wait returned %v", batched, arrive, err)
		}
		var rows sync.WaitGroup
		for name, wait := range ksWaits {
			for _, off := range []vtime.Time{0, 50, 100, 200, 300, 1000} {
				rows.Add(1)
				go func() {
					defer rows.Done()
					_, err := ksRun(t, batched, wait, arrive+off)
					if err != nil && (!errors.Is(err, ErrRankFailed) || errors.Is(err, ErrLinkFailed)) {
						t.Errorf("%s, batched=%v, kill at arrival %d + %d: %v, want nil or a wrapped ErrRankFailed only", name, batched, arrive, off, err)
					}
				}()
			}
		}
		rows.Wait()
	}
}

// TestRankDeathFreesCoarseLock: an origin that dies between its coarse-lock
// grant and the atomic put that would carry the release leaves the
// target's lock held by a dead rank. Once the death is confirmed the
// target evicts it, so a live origin's blocking atomic put to that live
// target is granted the lock and lands; without the eviction it waits for
// a grant that never comes and the world wedges. The eviction is the
// target's own business, so it holds when the target's link to itself
// drops every frame.
func TestRankDeathFreesCoarseLock(t *testing.T) {
	for _, row := range []struct {
		name  string
		links map[simnet.LinkKey]simnet.LinkFaults
	}{
		{"kill", nil},
		{"self-link-drops-all", map[simnet.LinkKey]simnet.LinkFaults{{Src: 0, Dst: 0}: {Drop: 1}}},
	} {
		t.Run(row.name, func(t *testing.T) { rdFreesCoarseLock(t, row.links) })
	}
}

// rdFreesCoarseLock runs TestRankDeathFreesCoarseLock's world, its plan
// faulting links as well as killing the victim.
func rdFreesCoarseLock(t *testing.T, links map[simnet.LinkKey]simnet.LinkFaults) {
	const (
		victim, survivor = 1, 2
		killAt           = vtime.Time(time.Millisecond) // well after the victim's grant
		tagDesc          = 1
		tagDone          = 2
	)
	plan := &simnet.FaultPlan{Seed: 43, RankKills: []simnet.RankKill{{Rank: victim, At: killAt}}, Links: links}
	w := newWorld(t, runtime.Config{Ranks: 3, Faults: plan})
	runBounded(t, w, 30*time.Second, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: serializer.MechCoarseLock})
		tm := shipTM(p, e, 8)
		switch p.Rank() {
		case victim:
			mine, _ := e.ExposeNew(8)
			if err := e.acquireLock(0); err != nil {
				t.Errorf("victim's lock: %v", err)
			}
			if p.Now() >= killAt {
				t.Errorf("the victim's grant came at %d, not before the kill at %d", p.Now(), killAt)
			}
			p.Send(survivor, tagDesc, mine.Encode())
			// Dead from here on: its atomic put, and with it the release,
			// never comes.
		case survivor:
			enc, _ := p.Recv(victim, tagDesc)
			theirs, err := DecodeTargetMem(enc)
			if err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			defer p.Send(0, tagDone, nil)
			p.NIC().CPU().AdvanceTo(killAt)
			src := p.Alloc(8)
			_, err = e.Put(src, 8, datatype.Byte, theirs, 0, 8, datatype.Byte, victim, p.Comm(), AttrRemoteComplete|AttrBlocking)
			if !errors.Is(err, ErrRankFailed) {
				t.Errorf("put to the dead victim returned %v, want ErrRankFailed", err)
			}
			p.WriteLocal(src, 0, []byte("survived"))
			if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, p.Comm(), AttrAtomic|AttrBlocking); err != nil {
				t.Errorf("atomic put after the victim's death: %v", err)
			}
			if err := e.Complete(p.Comm(), 0); err != nil {
				t.Errorf("complete: %v", err)
			}
		default:
			p.Recv(survivor, tagDone)
			if got := p.Mem().Snapshot(e.lookupExposure(tm.Handle).region.Offset, 8); string(got) != "survived" {
				t.Errorf("target word = %q, want the survivor's atomic put", got)
			}
			if grants, _ := e.LockStats(); grants != 2 {
				t.Errorf("%d lock grants, want 2: the victim's and the survivor's", grants)
			}
			if h := e.lock.Holder(); h != -1 {
				t.Errorf("lock ends held by rank %d", h)
			}
		}
	})
}

// TestRankDeathFlushReleasesCoarseLock: a replicating target whose buddy
// dies holds a coarse-locked atomic put's completion deferred behind the
// buddy's acknowledgement, and with it the lock release the put carries.
// The failure's flush runs that completion off the delivery token, so the
// release must go through the token (race builds assert it); once it has,
// a second coarse-locked put is granted the lock and lands.
func TestRankDeathFlushReleasesCoarseLock(t *testing.T) {
	const (
		target, buddy, origin = 0, 1, 2
		killAt                = vtime.Time(time.Millisecond) // after the mirror, before the put
		tagDesc, tagDone      = 1, 2
	)
	plan := &simnet.FaultPlan{Seed: 44, RankKills: []simnet.RankKill{{Rank: buddy, At: killAt}}}
	w := newWorld(t, runtime.Config{Ranks: 3, Faults: plan})
	runBounded(t, w, 30*time.Second, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: serializer.MechCoarseLock})
		if err := e.EnableReplication(); err != nil {
			t.Errorf("rank %d: enable replication: %v", p.Rank(), err)
			return
		}
		switch p.Rank() {
		case target:
			tm, _ := e.ExposeNew(8)
			rdMirrored(p, buddy)
			p.Send(origin, tagDesc, tm.Encode())
			p.Recv(origin, tagDone)
			if got := p.Mem().Snapshot(e.lookupExposure(tm.Handle).region.Offset, 8); string(got) != "second.." {
				t.Errorf("target word = %q, want the second atomic put's", got)
			}
			if grants, _ := e.LockStats(); grants != 2 {
				t.Errorf("%d lock grants, want 2", grants)
			}
			if h := e.lock.Holder(); h != -1 {
				t.Errorf("lock ends held by rank %d", h)
			}
		case buddy:
			rdAwaitReplica(t, p, e, target)
			// Dead from killAt on: the put's replica is never acknowledged.
		case origin:
			enc, _ := p.Recv(target, tagDesc)
			tm, err := DecodeTargetMem(enc)
			if err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			defer p.Send(target, tagDone, nil)
			p.NIC().CPU().AdvanceTo(killAt)
			src := p.Alloc(8)
			for _, word := range []string{"first...", "second.."} {
				p.WriteLocal(src, 0, []byte(word))
				if _, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, target, p.Comm(), AttrAtomic|AttrRemoteComplete|AttrBlocking); err != nil {
					t.Errorf("atomic put %q: %v", word, err)
				}
			}
			if err := e.Complete(p.Comm(), target); err != nil {
				t.Errorf("complete: %v", err)
			}
		}
	})
}
