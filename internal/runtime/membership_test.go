package runtime

import (
	"errors"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// errLink stands in for the link error a relay reports with a suspect.
var errLink = errors.New("link failed")

// membershipWorld builds a world of ranks compute ranks and spares spares
// whose fault plan kills rank victim at virtual time killAt: the ground
// truth Membership consults.
func membershipWorld(t *testing.T, ranks, spares, victim int, killAt vtime.Time) *World {
	t.Helper()
	w := NewWorld(Config{Ranks: ranks, Spares: spares, Faults: &simnet.FaultPlan{
		Seed:      1,
		RankKills: []simnet.RankKill{{Rank: victim, At: killAt}},
	}})
	t.Cleanup(w.Close)
	return w
}

// TestMembershipSuspectAgainstGroundTruth: a suspect the network says is
// alive — a live rank, or the victim before its kill — stays SUSPECT and
// notifies no one; the victim after its kill turns DEAD exactly once,
// however many origins report it at once, and every subscriber hears of
// the death once.
func TestMembershipSuspectAgainstGroundTruth(t *testing.T) {
	const victim, killAt = 2, vtime.Time(1000)
	m := membershipWorld(t, 3, 0, victim, killAt).Members()
	type death struct {
		rank  int
		at    vtime.Time
		cause error
	}
	var mu sync.Mutex
	var heard [2][]death
	for i := range heard {
		m.Subscribe(func(dead int, at vtime.Time, cause error) {
			mu.Lock()
			heard[i] = append(heard[i], death{dead, at, cause})
			mu.Unlock()
		})
	}

	if m.Suspect(1, 5*killAt, errLink) {
		t.Error("a live rank was confirmed dead")
	}
	if got := m.State(1); got != StateSuspect {
		t.Errorf("live suspect is %v, want SUSPECT", got)
	}
	if m.Suspect(victim, killAt-1, errLink) {
		t.Error("the victim was confirmed dead before its kill")
	}
	if got := m.State(victim); got != StateSuspect {
		t.Errorf("victim suspected before its kill is %v, want SUSPECT", got)
	}
	if m.Suspect(-1, killAt, errLink) || m.Suspect(3, killAt, errLink) {
		t.Error("a rank outside the world was confirmed dead")
	}

	var wg sync.WaitGroup
	var confirmed atomic.Int32
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m.Suspect(victim, 2*killAt, errLink) {
				confirmed.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := confirmed.Load(); got != 8 {
		t.Errorf("%d of 8 reports after the kill confirmed the death, want all", got)
	}
	if got := m.State(victim); got != StateDead {
		t.Errorf("victim is %v after the kill, want DEAD", got)
	}
	if !m.Suspect(victim, 3*killAt, errLink) {
		t.Error("a later report of a dead rank was not confirmed")
	}
	for i, deaths := range heard {
		if len(deaths) != 1 {
			t.Fatalf("subscriber %d heard %d deaths, want 1: %v", i, len(deaths), deaths)
		}
		if d := deaths[0]; d.rank != victim || d.at != 2*killAt || d.cause != errLink {
			t.Errorf("subscriber %d heard %+v, want rank %d at %d with the link error", i, d, victim, 2*killAt)
		}
	}
	if got := m.States(); got[0] != StateAlive || got[1] != StateSuspect || got[victim] != StateDead {
		t.Errorf("states %v, want [ALIVE SUSPECT DEAD]", got)
	}
}

// TestMembershipAllocSpare: spares are bound lowest first, one per dead
// rank, a second call for the same dead rank returns its binding, and
// AllocSpare reports when no spare is left — or none was ever built.
func TestMembershipAllocSpare(t *testing.T) {
	m := membershipWorld(t, 3, 2, 0, 1).Members()
	if got := m.States(); got[3] != StateSpare || got[4] != StateSpare {
		t.Fatalf("states %v, want ranks 3 and 4 SPARE", got)
	}
	for _, tc := range []struct {
		dead, spare int
		ok          bool
	}{{0, 3, true}, {0, 3, true}, {1, 4, true}, {2, -1, false}, {1, 4, true}} {
		if s, ok := m.AllocSpare(tc.dead); s != tc.spare || ok != tc.ok {
			t.Errorf("AllocSpare(%d) = (%d, %v), want (%d, %v)", tc.dead, s, ok, tc.spare, tc.ok)
		}
	}
	if got := m.States(); got[3] != StateRebuilding || got[4] != StateRebuilding {
		t.Errorf("states %v, want both spares REBUILDING", got)
	}
	if _, err := m.AwaitRebuilt(nil, 2); err == nil {
		t.Error("AwaitRebuilt for a dead rank with no spare left did not fail")
	}

	none := membershipWorld(t, 2, 0, 0, 1).Members()
	if s, ok := none.AllocSpare(0); ok || s != -1 {
		t.Errorf("AllocSpare without spares = (%d, %v), want (-1, false)", s, ok)
	}
}

// TestMembershipRebuildCompleteReleasesAwait: a rank parked in
// AwaitRebuilt stays parked while the spare is bound but rebuilding, and
// RebuildComplete releases it with the spare; an OnRebuilt callback
// registered before the rebuild runs once, with the same spare.
func TestMembershipRebuildCompleteReleasesAwait(t *testing.T) {
	const dead, spare = 1, 2
	w := membershipWorld(t, 2, 1, dead, 1)
	m := w.Members()
	var callbacks []int
	m.OnRebuilt(dead, func(s int) { callbacks = append(callbacks, s) })
	parked := func() int {
		m.changed.mu.Lock()
		defer m.changed.mu.Unlock()
		return len(m.changed.parked)
	}
	waitParked := func() {
		for deadline := time.Now().Add(time.Minute); parked() == 0; gort.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("the waiter never parked in AwaitRebuilt")
			}
		}
	}
	var got atomic.Int64
	got.Store(-1)
	err := w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			s, err := m.AwaitRebuilt(p, dead)
			if err != nil {
				t.Errorf("AwaitRebuilt: %v", err)
			}
			got.Store(int64(s))
		case spare:
			waitParked()
			if s, ok := m.AllocSpare(dead); !ok || s != spare {
				t.Errorf("AllocSpare(%d) = (%d, %v), want (%d, true)", dead, s, ok, spare)
			}
			// The bind wakes the waiter, which finds the spare still
			// rebuilding and parks again.
			waitParked()
			if s := got.Load(); s != -1 {
				t.Errorf("AwaitRebuilt returned %d before the rebuild completed", s)
			}
			m.RebuildComplete(dead, spare)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Load(); s != spare {
		t.Errorf("AwaitRebuilt returned %d, want the spare %d", s, spare)
	}
	if len(callbacks) != 1 || callbacks[0] != spare {
		t.Errorf("OnRebuilt callbacks %v, want one with the spare %d", callbacks, spare)
	}
	if st := m.State(spare); st != StateAlive {
		t.Errorf("rebuilt spare is %v, want ALIVE", st)
	}
	if s, err := m.AwaitRebuilt(nil, dead); err != nil || s != spare {
		t.Errorf("AwaitRebuilt after the rebuild = (%d, %v), want (%d, nil) at once", s, err, spare)
	}
}
