package lockrank

import (
	"fmt"
	"sync/atomic"
)

// Token is a mutex that stands for the state it orders: portals' delivery
// token, whose holder runs a NIC's handlers and alone touches the state
// DESIGN.md §5 lists as token-only. Checked builds record the holding
// goroutine (it stays wired to its thread while it holds the token), so
// AssertHeld can tell a token-only access made without the token.
type Token struct {
	mu    Plain
	owner atomic.Pointer[stack] // checked builds: the holder's stack
}

// Lock locks t.
func (t *Token) Lock() {
	t.mu.Lock()
	t.took()
}

// TryLock tries to lock t and reports whether it succeeded.
func (t *Token) TryLock() bool {
	if !t.mu.TryLock() {
		return false
	}
	t.took()
	return true
}

// Unlock unlocks t.
func (t *Token) Unlock() {
	if checked {
		unwire(t.owner.Swap(nil))
	}
	t.mu.Unlock()
}

func (t *Token) took() {
	if checked {
		t.owner.Store(mine())
	}
}

// AssertHeld panics, in checked builds, unless the calling goroutine holds
// t; what names the state the caller was about to touch.
func (t *Token) AssertHeld(what string) {
	if checked {
		s := mine()
		defer unwire(s)
		if t.owner.Load() != s {
			panic(fmt.Sprintf("lockrank: %s touched without the delivery token", what))
		}
	}
}
