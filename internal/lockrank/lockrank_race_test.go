//go:build race && linux

package lockrank

import (
	"strings"
	"testing"
)

// TestRaceBuildChecksLock: in a race build a real Lock runs the check,
// and panics before it blocks on the inversion.
func TestRaceBuildChecksLock(t *testing.T) {
	eng, rp := Mutex{Rank: Engine}, Mutex{Rank: Replica}
	rp.Lock()
	defer rp.Unlock()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "acquiring e.mu (rank 10) while holding repl.mu (rank 35)") {
			t.Errorf("panic = %v, want the inversion", r)
		}
	}()
	eng.Lock()
}

// TestRaceBuildChecksPark: a park with a ranked lock held panics.
func TestRaceBuildChecksPark(t *testing.T) {
	eng := Mutex{Rank: Engine}
	eng.Lock()
	defer eng.Unlock()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "parking while holding e.mu") {
			t.Errorf("panic = %v, want the park under a lock", r)
		}
	}()
	CheckPark()
}

// TestRaceBuildLockAllocatesNothing: the held stacks are reused, so the
// engine's allocation pins hold in race builds too.
func TestRaceBuildLockAllocatesNothing(t *testing.T) {
	eng, rp := Mutex{Rank: Engine}, Mutex{Rank: Replica}
	cycle := func() {
		eng.Lock()
		rp.Lock()
		rp.Unlock()
		eng.Unlock()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a ranked lock cycle costs %v allocs, want 0", n)
	}
}
