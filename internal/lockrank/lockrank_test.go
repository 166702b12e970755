package lockrank

import (
	"strings"
	"testing"
)

// engine is a miniature of the ranked set: core's engine and replication
// locks and the portals relay's. held is
// the stack a race build keeps for the goroutine running each method, so
// the same verdicts run here in every build.
type engine struct {
	held          stack
	mu, rp, relay Mutex
}

func newEngine() *engine {
	return &engine{mu: Mutex{Rank: Engine}, rp: Mutex{Rank: Replica}, relay: Mutex{Rank: Relay}}
}

func (e *engine) lock(m *Mutex)   { e.held.acquire(m) }
func (e *engine) unlock(m *Mutex) { e.held.release(m) }

// lockEngine takes the lowest rank in a helper: calling it with a higher
// rank held inverts the order though the Lock is in another function.
func (e *engine) lockEngine() {
	e.lock(&e.mu)
	defer e.unlock(&e.mu)
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
			e.lock(&e.rp)
			e.lock(&e.mu)
		}, "acquiring e.mu (rank 10) while holding repl.mu (rank 35)"},
		{"inverted across defer", func(e *engine) {
			e.lock(&e.relay)
			defer e.unlock(&e.relay)
			e.lock(&e.rp)
		}, "acquiring repl.mu (rank 35) while holding relay.mu (rank 40)"},
		{"relock", func(e *engine) {
			e.lock(&e.mu)
			e.lock(&e.mu)
		}, "acquiring e.mu (rank 10) while holding e.mu (rank 10)"},
		{"call inverts", func(e *engine) {
			e.lock(&e.rp)
			defer e.unlock(&e.rp)
			e.lockEngine()
		}, "acquiring e.mu (rank 10) while holding repl.mu (rank 35)"},
		{"call relocks", func(e *engine) {
			e.lock(&e.mu)
			defer e.unlock(&e.mu)
			e.lockEngine()
		}, "acquiring e.mu (rank 10) while holding e.mu (rank 10)"},
		{"park under lock", func(e *engine) {
			e.lock(&e.mu)
			defer e.unlock(&e.mu)
			e.held.park()
		}, "parking while holding e.mu (rank 10)"},
		{"ascending", func(e *engine) {
			e.lock(&e.mu)
			e.lock(&e.rp)
			e.lock(&e.relay)
			e.unlock(&e.relay)
			e.unlock(&e.rp)
			e.unlock(&e.mu)
		}, ""},
		{"sequential", func(e *engine) {
			e.lock(&e.relay)
			e.unlock(&e.relay)
			e.lock(&e.mu)
			e.unlock(&e.mu)
		}, ""},
		{"call ascends", func(e *engine) {
			e.lockEngine()
			e.lock(&e.rp)
			e.unlock(&e.rp)
		}, ""},
		{"released out of order", func(e *engine) {
			e.lock(&e.mu)
			e.lock(&e.rp)
			e.unlock(&e.mu)
			e.unlock(&e.rp)
			e.lockEngine()
		}, ""},
		{"park after release", func(e *engine) {
			e.lock(&e.rp)
			e.unlock(&e.rp)
			e.held.park()
		}, ""},
		{"another goroutine's stack", func(e *engine) {
			e.lock(&e.rp)
			defer e.unlock(&e.rp)
			var spawned stack // a spawned goroutine holds nothing of its parent's
			spawned.acquire(&e.mu)
			spawned.release(&e.mu)
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
