package lockrank

import (
	"strings"
	"testing"
)

// engine is a miniature of core's engine with three ranked locks. held is
// the stack a race build keeps for the goroutine running each method, so
// the same verdicts run here in every build.
type engine struct {
	held              stack
	tgtMu, cmplMu, rp Mutex
}

func newEngine() *engine {
	return &engine{tgtMu: Mutex{Rank: Target}, cmplMu: Mutex{Rank: Confirm}, rp: Mutex{Rank: Replica}}
}

func (e *engine) lock(m *Mutex)   { e.held.acquire(m) }
func (e *engine) unlock(m *Mutex) { e.held.release(m) }

// lockTgt takes the lowest rank in a helper: calling it with a higher
// rank held inverts the order though the Lock is in another function.
func (e *engine) lockTgt() {
	e.lock(&e.tgtMu)
	defer e.unlock(&e.tgtMu)
}

// TestLockOrderGolden runs each seeded mistake of the lock hierarchy
// (inversion, inversion across a defer, relock, a helper call that
// inverts or relocks, parking under a lock) and the legal variants beside
// them: every mistake panics with the message naming both locks, every
// legal variant is silent.
func TestLockOrderGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(e *engine)
		want string // "" = legal
	}{
		{"inverted", func(e *engine) {
			e.lock(&e.cmplMu)
			e.lock(&e.tgtMu)
		}, "acquiring tgtMu (rank 10) while holding cmplMu (rank 20)"},
		{"inverted across defer", func(e *engine) {
			e.lock(&e.rp)
			defer e.unlock(&e.rp)
			e.lock(&e.cmplMu)
		}, "acquiring cmplMu (rank 20) while holding repl.mu (rank 35)"},
		{"relock", func(e *engine) {
			e.lock(&e.tgtMu)
			e.lock(&e.tgtMu)
		}, "acquiring tgtMu (rank 10) while holding tgtMu (rank 10)"},
		{"call inverts", func(e *engine) {
			e.lock(&e.cmplMu)
			defer e.unlock(&e.cmplMu)
			e.lockTgt()
		}, "acquiring tgtMu (rank 10) while holding cmplMu (rank 20)"},
		{"call relocks", func(e *engine) {
			e.lock(&e.tgtMu)
			defer e.unlock(&e.tgtMu)
			e.lockTgt()
		}, "acquiring tgtMu (rank 10) while holding tgtMu (rank 10)"},
		{"park under lock", func(e *engine) {
			e.lock(&e.tgtMu)
			defer e.unlock(&e.tgtMu)
			e.held.park()
		}, "parking while holding tgtMu (rank 10)"},
		{"ascending", func(e *engine) {
			e.lock(&e.tgtMu)
			e.lock(&e.cmplMu)
			e.lock(&e.rp)
			e.unlock(&e.rp)
			e.unlock(&e.cmplMu)
			e.unlock(&e.tgtMu)
		}, ""},
		{"sequential", func(e *engine) {
			e.lock(&e.rp)
			e.unlock(&e.rp)
			e.lock(&e.tgtMu)
			e.unlock(&e.tgtMu)
		}, ""},
		{"call ascends", func(e *engine) {
			e.lockTgt()
			e.lock(&e.cmplMu)
			e.unlock(&e.cmplMu)
		}, ""},
		{"released out of order", func(e *engine) {
			e.lock(&e.tgtMu)
			e.lock(&e.cmplMu)
			e.unlock(&e.tgtMu)
			e.unlock(&e.cmplMu)
			e.lockTgt()
		}, ""},
		{"park after release", func(e *engine) {
			e.lock(&e.cmplMu)
			e.unlock(&e.cmplMu)
			e.held.park()
		}, ""},
		{"another goroutine's stack", func(e *engine) {
			e.lock(&e.cmplMu)
			defer e.unlock(&e.cmplMu)
			var spawned stack // a spawned goroutine holds nothing of its parent's
			spawned.acquire(&e.tgtMu)
			spawned.release(&e.tgtMu)
			spawned.park()
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := ""
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = r.(string)
					}
				}()
				tc.run(newEngine())
			}()
			switch {
			case tc.want == "" && got != "":
				t.Errorf("legal variant panicked: %s", got)
			case tc.want != "" && !strings.Contains(got, tc.want):
				t.Errorf("panic = %q, want it to contain %q", got, tc.want)
			}
		})
	}
}
