package lockrank

import (
	"sync"
	"sync/atomic"
)

// Plain is an unranked mutex on the operation path. Outside the lockcount
// build tag it is a sync.Mutex; a lockcount build (tests only: make locks)
// counts every Lock and TryLock of it, and of every ranked Mutex, so a
// test can pin how many acquisitions one operation takes.
type Plain struct {
	mu sync.Mutex
}

// Lock locks m.
func (m *Plain) Lock() {
	if counting {
		acquisitions.Add(1)
	}
	m.mu.Lock()
}

// TryLock tries to lock m and reports whether it succeeded.
func (m *Plain) TryLock() bool {
	if counting {
		acquisitions.Add(1)
	}
	return m.mu.TryLock()
}

// Unlock unlocks m.
func (m *Plain) Unlock() { m.mu.Unlock() }

// acquisitions counts Lock and TryLock calls in lockcount builds.
var acquisitions atomic.Int64

// Acquisitions returns how many Lock and TryLock calls the process has
// made on Plain and ranked mutexes so far; it is always 0 outside the
// lockcount build tag.
func Acquisitions() int64 { return acquisitions.Load() }
