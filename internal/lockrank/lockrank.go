// Package lockrank ranks the engine's long-lived mutexes after the Go
// runtime's lockrank_on.go. Race builds on Linux are checked builds: a
// ranked Lock panics before it can block on an inversion or a relock, and
// Proc.Park panics under a ranked lock. Other builds keep plain
// sync.Mutex semantics and cost.
package lockrank

import (
	"fmt"
	"slices"
)

// Rank orders the mutexes: holding rank r, take only higher ranks.
type Rank uint8

const (
	Engine  Rank = 10 // core Engine.mu
	Replica Rank = 35 // core replState.mu
	Relay   Rank = 40 // portals relay.mu
)

var names = [...]string{Engine: "e.mu", Replica: "repl.mu", Relay: "relay.mu"}

func (r Rank) String() string { return fmt.Sprintf("%s (rank %d)", names[r], uint8(r)) }

// Mutex is a sync.Mutex with a rank its owner sets before first use.
type Mutex struct {
	mu     Plain
	Rank   Rank
	holder *stack // checked builds: the holding goroutine's locks, under mu
}

// Lock locks m; checked builds first check it against the calling
// goroutine's ranked locks.
func (m *Mutex) Lock() {
	if !checked {
		m.mu.Lock()
		return
	}
	s := mine()
	s.acquire(m)
	m.mu.Lock()
	m.holder = s
}

// Unlock unlocks m.
func (m *Mutex) Unlock() {
	if !checked {
		m.mu.Unlock()
		return
	}
	s := m.holder
	m.holder = nil
	s.release(m)
	m.mu.Unlock()
	unwire(s)
}

// CheckPark panics, in checked builds, if the caller holds a ranked lock:
// a parked rank waits on others, which may need it.
func CheckPark() {
	if checked {
		s := mine()
		defer unwire(s)
		s.park()
	}
}

// stack is the ranked locks one goroutine holds.
type stack []*Mutex

// acquire pushes m, or panics if a held lock (m itself, for a relock)
// ranks no lower.
func (s *stack) acquire(m *Mutex) {
	for _, h := range *s {
		if h.Rank >= m.Rank {
			panic(fmt.Sprintf("lockrank: acquiring %v while holding %v", m.Rank, h.Rank))
		}
	}
	*s = append(*s, m)
}

// release drops m.
func (s *stack) release(m *Mutex) {
	if i := slices.Index(*s, m); i >= 0 {
		*s = slices.Delete(*s, i, i+1)
	}
}

// park panics if s holds a ranked lock.
func (s *stack) park() {
	if len(*s) > 0 {
		panic(fmt.Sprintf("lockrank: parking while holding %v", (*s)[len(*s)-1].Rank))
	}
}
