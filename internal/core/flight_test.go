package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/trace"
)

// TestLinkFailurePostmortem pins the acceptance criterion end to end: a
// chaos-injected permanent link failure (drop-everything on 0→1, retry
// budget exhausted) auto-dumps a postmortem whose event ring names the
// failed link and its retry history, and whose health snapshot carries
// the sticky error.
func TestLinkFailurePostmortem(t *testing.T) {
	dir := t.TempDir()
	w := newWorld(t, runtime.Config{
		Ranks: 2,
		Faults: &simnet.FaultPlan{
			Seed:  31,
			Links: map[simnet.LinkKey]simnet.LinkFaults{{Src: 0, Dst: 1}: {Drop: 1}},
		},
	})
	dumps := make(chan []string, 1)
	runBounded(t, w, 15*time.Second, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		e.EnableFlightRecorder(telemetry.FlightConfig{Dir: dir, Cap: 64})
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
		if _, err := e.Put(scratch, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 1, comm, AttrNone); err != nil && !errors.Is(err, ErrLinkFailed) {
			t.Errorf("put: %v", err)
			return
		}
		if err := e.Complete(comm, 1); !errors.Is(err, ErrLinkFailed) {
			t.Errorf("Complete returned %v, want wrapped ErrLinkFailed", err)
		}
		// Evidence before error: the fan-out writes the postmortem before
		// it fails the probe Complete waits on, so the file list is
		// already complete here.
		dumps <- e.FlightRecorder().Dumps()
	})
	files := <-dumps
	if len(files) != 1 {
		t.Fatalf("link failure produced %d postmortems, want 1", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatalf("reading postmortem: %v", err)
	}
	var pm telemetry.Postmortem
	if err := json.Unmarshal(raw, &pm); err != nil {
		t.Fatalf("postmortem does not parse: %v", err)
	}
	if pm.Reason != "link-failed" || pm.Rank != 0 {
		t.Fatalf("postmortem reason=%q rank=%d, want link-failed on rank 0", pm.Reason, pm.Rank)
	}
	var failed, retries int
	for _, ev := range pm.Events {
		switch ev.Kind {
		case trace.KindLinkFailed:
			if ev.Peer != 1 {
				t.Errorf("link-failed event names peer %d, want 1", ev.Peer)
			}
			// The postmortem was read back from disk: the error survives the
			// round trip as its text.
			if ev.Err == nil || !strings.Contains(ev.Err.Error(), "retry budget") {
				t.Errorf("link-failed event carries error %v, want the relay's retry-budget text", ev.Err)
			}
			failed++
		case trace.KindRetransmit:
			if ev.Peer == 1 {
				retries++
			}
		}
	}
	if failed == 0 {
		t.Fatal("postmortem ring has no link-failed event")
	}
	if retries == 0 {
		t.Fatal("postmortem ring has no retry history for the failed link")
	}
	if pm.Health == nil || len(pm.Health.Sticky) == 0 {
		t.Fatalf("postmortem health misses the sticky error: %+v", pm.Health)
	}
}

// TestRankDeathPostmortem pins the robustness PR's forensic criterion:
// when a rank is crash-injected, the promoting buddy's auto-dumped
// postmortem names the whole recovery — the dead rank, the buddy itself,
// the spare the replicas were replayed onto, and the replayed version
// range — so a single file reconstructs the death without the console.
func TestRankDeathPostmortem(t *testing.T) {
	dir := t.TempDir()
	const (
		victim   = 1
		promoter = 2 // the victim's buddy, (victim+1) mod 3
		spare    = 3 // the lone spare's world rank
	)
	plan := &simnet.FaultPlan{
		Seed:      99,
		RankKills: []simnet.RankKill{{Rank: victim, At: rdKillAt}},
	}
	w := newWorld(t, runtime.Config{Ranks: 3, Spares: 1, Seed: 11, Faults: plan})
	runBounded(t, w, 60*time.Second, func(p *runtime.Proc) { pmDeathRank(t, w, p, dir) })

	eng := Attached(w.Proc(promoter))
	if eng == nil {
		t.Fatal("promoter engine not attached")
	}
	// The promoter is a bystander: no error surfaces on it. Its postmortem
	// is written by the failure frame the quiet step that detected the
	// death posts to it, which runs on a rank goroutine before that
	// goroutine goes on, so it is on disk by the time Run has returned.
	files := eng.FlightRecorder().Dumps()
	if len(files) != 1 {
		t.Fatalf("promoter produced %d postmortems, want exactly 1 for the death", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatalf("reading postmortem: %v", err)
	}
	var pm telemetry.Postmortem
	if err := json.Unmarshal(raw, &pm); err != nil {
		t.Fatalf("postmortem does not parse: %v", err)
	}
	if pm.Reason != "rank-death" || pm.Rank != promoter {
		t.Fatalf("postmortem reason=%q rank=%d, want rank-death on rank %d", pm.Reason, pm.Rank, promoter)
	}
	rd := pm.RankDeath
	if rd == nil {
		t.Fatal("promoter postmortem carries no rank_death report")
	}
	if rd.Dead != victim || rd.Buddy != promoter || rd.Spare != spare {
		t.Fatalf("rank_death names dead=%d buddy=%d spare=%d, want %d/%d/%d",
			rd.Dead, rd.Buddy, rd.Spare, victim, promoter, spare)
	}
	if rd.Regions != 1 {
		t.Fatalf("rank_death replayed %d regions, want 1", rd.Regions)
	}
	if rd.FromVersion != 1 || rd.ToVersion < 1 {
		t.Fatalf("rank_death version range %d..%d, want 1..>=1", rd.FromVersion, rd.ToVersion)
	}
	var promote bool
	for _, ev := range pm.Events {
		if ev.Kind == trace.KindReplicaPromote {
			promote = true
		}
	}
	if !promote {
		t.Fatal("postmortem ring has no replica-promote event")
	}
}

// pmDeathRank is one rank's workload for TestRankDeathPostmortem: the
// victim and its buddy are pure targets, writer 0 hammers the victim
// until the death surfaces, then converges one write on the successor.
func pmDeathRank(t *testing.T, w *runtime.World, p *runtime.Proc, dir string) {
	e := Attach(p, Options{})
	e.EnableFlightRecorder(telemetry.FlightConfig{Dir: dir, Cap: 128})
	if err := e.EnableReplication(); err != nil {
		t.Errorf("enable replication: %v", err)
		panic("postmortem: replication unavailable")
	}
	if p.IsSpare() {
		p.Recv(0, rdTagFin)
		return
	}
	comm := p.Comm()
	// The same gate as rdRank: the victim's mirror must be the first thing
	// its NIC injects, so its buddy holds the others back until it has the
	// replica it is going to promote.
	switch p.Rank() {
	case 2:
		rdAwaitReplica(t, p, e, 1)
		p.Send(0, rdTagReady, nil)
	case 0:
		p.Recv(2, rdTagReady)
	}
	tm, _ := e.ExposeNew(rdSlot)
	if p.Rank() == 1 {
		rdMirrored(p, 2)
	}
	if p.Rank() != 0 {
		return // victim and buddy serve from their NICs
	}
	// Exposures are symmetric (one identical ExposeNew per compute rank),
	// so the writer forms the victim's descriptor locally instead of
	// racing the kill for a wire delivery (see rankdeath_test.go).
	vtm := tm
	vtm.Owner = 1
	scratch := p.Alloc(rdSlot)
	var failed error
	for round := 0; failed == nil; round++ {
		p.WriteLocal(scratch, 0, bytes.Repeat([]byte{byte(round + 1)}, rdSlot))
		failed = rdPutComplete(e, comm, scratch, vtm, 1, 0)
	}
	if !errors.Is(failed, ErrRankFailed) {
		t.Errorf("death surfaced as %v, want wrapped ErrRankFailed", failed)
		panic("postmortem: wrong sentinel")
	}
	succ, err := w.Members().AwaitRebuilt(p, 1)
	if err != nil {
		t.Errorf("await rebuild: %v", err)
		panic("postmortem: rebuild unavailable")
	}
	if err := rdPutComplete(e, comm, scratch, vtm, succ, 0); err != nil {
		t.Errorf("op to successor %d failed: %v", succ, err)
		panic("postmortem: successor op failed")
	}
	p.Send(succ, rdTagFin, nil)
}
