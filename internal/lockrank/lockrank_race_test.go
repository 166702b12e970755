//go:build race && linux

package lockrank

import (
	"strings"
	"testing"
)

// TestRaceBuildChecksLock: in a race build a real Lock runs the check,
// and panics before it blocks on the inversion.
func TestRaceBuildChecksLock(t *testing.T) {
	tgt, cmpl := Mutex{Rank: Target}, Mutex{Rank: Confirm}
	cmpl.Lock()
	defer cmpl.Unlock()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "acquiring tgtMu (rank 10) while holding cmplMu (rank 20)") {
			t.Errorf("panic = %v, want the inversion", r)
		}
	}()
	tgt.Lock()
}

// TestRaceBuildChecksPark: a park with a ranked lock held panics.
func TestRaceBuildChecksPark(t *testing.T) {
	tgt := Mutex{Rank: Target}
	tgt.Lock()
	defer tgt.Unlock()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "parking while holding tgtMu") {
			t.Errorf("panic = %v, want the park under a lock", r)
		}
	}()
	CheckPark()
}

// TestRaceBuildLockAllocatesNothing: the held stacks are reused, so the
// engine's allocation pins hold in race builds too.
func TestRaceBuildLockAllocatesNothing(t *testing.T) {
	tgt, cmpl := Mutex{Rank: Target}, Mutex{Rank: Confirm}
	cycle := func() {
		tgt.Lock()
		cmpl.Lock()
		cmpl.Unlock()
		tgt.Unlock()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a ranked lock cycle costs %v allocs, want 0", n)
	}
}
