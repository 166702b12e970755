package runtime

import (
	"fmt"
	"sync"

	"mpi3rma/internal/vtime"
)

// Membership is the world-global rank liveness view: the stand-in for the
// RAS (reliability, availability, serviceability) daemon of a real
// machine. Link-level failure detection (the relay's retry-budget
// exhaustion) reports suspects here; Membership consults the simulation's
// ground truth (simnet.Network.RankDeadAt — the moral equivalent of the
// RAS daemon's out-of-band node-death notification) to discriminate a
// dead rank from a merely broken link, transitions the rank's state
// exactly once, and fans the confirmed death out to every subscribed
// engine. It also tracks the spare pool and the dead→successor binding
// the rebuild protocol establishes.
//
// All state is O(ranks) for the whole world — one byte of state per rank
// plus the (dead, successor) bindings — matching foMPI's constant-size
// recovery metadata goal (see DESIGN.md §14).
type Membership struct {
	w       *World
	compute int // ranks [0, compute) are compute ranks; the rest are spares

	mu        sync.Mutex
	states    []RankState
	successor map[int]int // dead rank -> spare rank serving its regions
	subs      []func(dead int, at vtime.Time, cause error)
	// changed rings on every binding and rebuild, for AwaitRebuilt to park
	// on; rebuilt holds OnRebuilt callbacks by dead rank.
	changed *Bell
	rebuilt map[int][]func(spare int)
}

// RankState is one rank's liveness as seen by the membership service.
type RankState uint8

const (
	// StateAlive ranks serve traffic normally (including a spare that has
	// finished rebuilding a dead rank's regions).
	StateAlive RankState = iota
	// StateSuspect ranks have exhausted some origin's retry budget but
	// are not confirmed dead: the failure is a link, not the rank.
	StateSuspect
	// StateDead ranks are confirmed crashed; their state transitions here
	// exactly once and never leaves.
	StateDead
	// StateRebuilding spares are replaying a dead rank's replicated
	// regions and not yet serving.
	StateRebuilding
	// StateSpare ranks idle in the spare pool, waiting for a death.
	StateSpare
)

// String returns the console spelling of a rank state.
func (s RankState) String() string {
	switch s {
	case StateAlive:
		return "ALIVE"
	case StateSuspect:
		return "SUSPECT"
	case StateDead:
		return "DEAD"
	case StateRebuilding:
		return "REBUILDING"
	case StateSpare:
		return "SPARE"
	}
	return fmt.Sprintf("RankState(%d)", uint8(s))
}

func newMembership(w *World, compute, total int) *Membership {
	m := &Membership{
		w:         w,
		compute:   compute,
		states:    make([]RankState, total),
		successor: make(map[int]int),
		changed:   newBell(),
		rebuilt:   make(map[int][]func(spare int)),
	}
	for r := compute; r < total; r++ {
		m.states[r] = StateSpare
	}
	return m
}

// State returns rank r's current liveness state.
func (m *Membership) State(r int) RankState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r < 0 || r >= len(m.states) {
		return StateAlive
	}
	return m.states[r]
}

// States returns a copy of every rank's state, indexed by world rank.
func (m *Membership) States() []RankState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]RankState(nil), m.states...)
}

// Subscribe registers a callback invoked exactly once per confirmed rank
// death, from the goroutine that confirmed it (never with m.mu held).
// Engines use it to fail outstanding work toward the dead rank.
func (m *Membership) Subscribe(fn func(dead int, at vtime.Time, cause error)) {
	m.mu.Lock()
	m.subs = append(m.subs, fn)
	m.mu.Unlock()
}

// Suspect reports a rank some origin can no longer reach (its retry
// budget ran out at virtual time at, with cause as the link error). It
// returns true when the rank is confirmed dead — the first confirmation
// transitions the state and notifies every subscriber; later ones are
// no-ops that still return true. A suspect that is not dead (the link
// failed, not the rank) is marked SUSPECT and false is returned so the
// caller keeps its link-failure semantics.
func (m *Membership) Suspect(r int, at vtime.Time, cause error) bool {
	if r < 0 || r >= len(m.states) {
		return false
	}
	if !m.w.net.RankDeadAt(r, at) {
		m.mu.Lock()
		if m.states[r] == StateAlive {
			m.states[r] = StateSuspect
		}
		m.mu.Unlock()
		return false
	}
	m.mu.Lock()
	if m.states[r] == StateDead {
		m.mu.Unlock()
		return true
	}
	m.states[r] = StateDead
	subs := make([]func(dead int, at vtime.Time, cause error), len(m.subs))
	copy(subs, m.subs)
	m.mu.Unlock()
	for _, fn := range subs {
		fn(r, at, cause)
	}
	return true
}

// AllocSpare binds the lowest free spare to dead, marking it REBUILDING,
// and returns it. Idempotent: a second call for the same dead rank
// returns the existing binding. ok is false when the pool is exhausted
// (or the world was built with no spares).
func (m *Membership) AllocSpare(dead int) (spare int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, bound := m.successor[dead]; bound {
		return s, true
	}
	for r := m.compute; r < len(m.states); r++ {
		if m.states[r] == StateSpare {
			m.states[r] = StateRebuilding
			m.successor[dead] = r
			m.changed.Ring()
			return r, true
		}
	}
	return -1, false
}

// RebuildComplete marks the spare bound to dead as ALIVE, wakes every
// AwaitRebuilt waiter and runs the OnRebuilt callbacks for dead: the spare
// now serves the dead rank's regions.
func (m *Membership) RebuildComplete(dead, spare int) {
	m.mu.Lock()
	m.states[spare] = StateAlive
	m.changed.Ring()
	fns := m.rebuilt[dead]
	delete(m.rebuilt, dead)
	m.mu.Unlock()
	for _, fn := range fns {
		fn(spare)
	}
}

// rebuiltLocked returns the spare serving dead's rebuilt regions (ok), or
// reports that no rebuild can ever complete (never): nothing is bound to
// dead and no spare is left to bind. Caller holds m.mu.
func (m *Membership) rebuiltLocked(dead int) (spare int, ok, never bool) {
	s, bound := m.successor[dead]
	if bound {
		return s, m.states[s] == StateAlive, false
	}
	for r := m.compute; r < len(m.states); r++ {
		if m.states[r] == StateSpare {
			return -1, false, false
		}
	}
	return -1, false, true
}

// AwaitRebuilt blocks until a spare has fully rebuilt dead's regions and
// returns it. It errors immediately when no rebuild can ever complete —
// the world has no spare left to allocate and none is bound to dead. p is
// the calling rank: it parks in the library meanwhile.
func (m *Membership) AwaitRebuilt(p *Proc, dead int) (int, error) {
	for {
		seen := m.changed.Rings()
		m.mu.Lock()
		s, ok, never := m.rebuiltLocked(dead)
		m.mu.Unlock()
		switch {
		case never:
			return -1, fmt.Errorf("runtime: no spare available to rebuild rank %d", dead)
		case ok:
			return s, nil
		}
		p.Park(m.changed, seen)
	}
}

// OnRebuilt runs fn with the spare once one has fully rebuilt dead's
// regions — at once, or on the goroutine reporting RebuildComplete — and
// never when no rebuild can complete (see AwaitRebuilt).
func (m *Membership) OnRebuilt(dead int, fn func(spare int)) {
	m.mu.Lock()
	s, ok, never := m.rebuiltLocked(dead)
	if !ok && !never {
		m.rebuilt[dead] = append(m.rebuilt[dead], fn)
	}
	m.mu.Unlock()
	if ok {
		fn(s)
	}
}
