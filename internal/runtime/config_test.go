package runtime

import (
	gort "runtime"
	"sync"
	"testing"
	"time"

	"mpi3rma/internal/simnet"
)

// TestWorldCostsORanks pins what a world costs before its first put: rank
// memory is backed only when touched, so 1024 ranks allocate small
// per-rank structures, not 1024 rank memories of DefaultMemSize bytes.
func TestWorldCostsORanks(t *testing.T) {
	const ranks, budget = 1024, 64 << 20
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	w := NewWorld(Config{Ranks: ranks})
	gort.ReadMemStats(&after)
	w.Close()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewWorld(%d ranks) allocated %.1f MB", ranks, float64(got)/(1<<20))
	if got >= budget {
		t.Errorf("NewWorld(%d ranks) allocated %d MB, want < %d MB", ranks, got>>20, budget>>20)
	}
}

// TestCustomCostModelPlumbed: a slower configured network yields later
// virtual times for the same exchange.
func TestCustomCostModelPlumbed(t *testing.T) {
	run := func(latency time.Duration) int64 {
		w := NewWorld(Config{
			Ranks: 2,
			Cost: simnet.CostModel{
				Latency:         latency,
				Overhead:        time.Microsecond,
				DeliverOverhead: 100 * time.Nanosecond,
				Gap:             100 * time.Nanosecond,
				PerKB:           512 * time.Nanosecond,
			},
		})
		defer w.Close()
		var at int64
		err := w.Run(func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 0, []byte("x"))
				return
			}
			p.Recv(0, 0)
			at = int64(p.Now())
		})
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	fast := run(time.Microsecond)
	slow := run(time.Millisecond)
	if slow-fast < int64(900*time.Microsecond) {
		t.Fatalf("latency not plumbed: fast=%d slow=%d", fast, slow)
	}
}

// TestFaultPlanPlumbed: a fault plan passed through Config reaches the
// network, and the reliable-delivery relay it enables absorbs the injected
// duplicates (runtime p2p rides the relay automatically).
func TestFaultPlanPlumbed(t *testing.T) {
	w := NewWorld(Config{
		Ranks:  2,
		Faults: &simnet.FaultPlan{Seed: 11, Default: simnet.LinkFaults{Dup: 1}},
	})
	defer w.Close()
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, []byte("hi"))
		} else {
			p.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Net().FaultsDuplicated.Value() == 0 {
		t.Fatal("fault plan never injected a duplicate")
	}
	if w.Net().DupDropped.Value() == 0 {
		t.Fatal("relay never deduplicated the injected duplicates")
	}
}

// TestNewWorldRejectsBadCounts: a world needs at least one rank and cannot
// have fewer than zero spares. A negative spare count would build fewer
// processes than Size reports, and the first collective would address a
// rank the network does not have.
func TestNewWorldRejectsBadCounts(t *testing.T) {
	for _, cfg := range []Config{{Ranks: 0}, {Ranks: -1}, {Ranks: 3, Spares: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWorld(Ranks %d, Spares %d) did not panic", cfg.Ranks, cfg.Spares)
				}
			}()
			NewWorld(cfg).Close()
		}()
	}
}

// TestDeepExchangeInOrder: one rank sends a run of messages before the
// other receives any; none wedges the sender and all arrive in order.
func TestDeepExchangeInOrder(t *testing.T) {
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	err := w.Run(func(p *Proc) {
		const msgs = 100
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				p.Send(1, 0, []byte{byte(i)})
			}
		} else {
			for i := 0; i < msgs; i++ {
				data, _ := p.Recv(0, 0)
				if data[0] != byte(i) {
					t.Errorf("message %d out of order", i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommSubPanics: misuse of Sub is rejected loudly.
func TestCommSubPanics(t *testing.T) {
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	err := w.Run(func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Sub with duplicate ranks should panic")
				}
			}()
			p.Comm().Sub([]int{0, 0})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Sub excluding the caller should panic")
				}
			}()
			p.Comm().Sub([]int{1})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("WorldRank out of range should panic")
				}
			}()
			p.Comm().WorldRank(9)
		}()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorldCloseReleasesGoroutines: creating, running and closing many
// worlds, ordered and unordered, leaves no goroutine behind.
func TestWorldCloseReleasesGoroutines(t *testing.T) {
	before := gort.NumGoroutine()
	for i := 0; i < 10; i++ {
		w := NewWorld(Config{Ranks: 4, UnorderedNet: i%2 == 1, Seed: int64(i)})
		err := w.Run(func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 0, []byte("ping"))
			} else if p.Rank() == 1 {
				p.Recv(0, 0)
			}
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if gort.NumGoroutine() <= before {
			return
		}
		gort.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after closing 10 worlds", before, gort.NumGoroutine())
}

// TestBellCountsWokenRankRunning: a ring counts the rank it wakes as
// running before that rank's goroutine has run again, so a quiet step
// cannot fire in between; a rank counts once however many of its
// goroutines are parked; one ring wakes every goroutine parked on a bell;
// and a Park whose seen count a ring already passed returns at once,
// leaving the count alone.
func TestBellCountsWokenRankRunning(t *testing.T) {
	w := NewWorld(Config{Ranks: 1})
	defer w.Close()
	b, other := w.Proc(0).NewBell(), w.Proc(0).NewBell()
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(time.Minute); !cond(); gort.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}
	parked := func(n int) func() bool {
		return func() bool {
			return w.Proc(0).parkedN.Load() == int64(n)
		}
	}
	rung := make(chan int64)
	go func() {
		waitFor("three goroutines parked", parked(3))
		if n := w.running.Load(); n != 0 {
			t.Errorf("running = %d with every goroutine of the rank parked, want 0", n)
		}
		b.Ring()
		waitFor("one ring woke both goroutines on b", parked(1))
		if n := w.running.Load(); n != 0 {
			t.Errorf("running = %d with one goroutine of the rank still parked, want 0", n)
		}
		other.Ring()
		rung <- w.running.Load()
	}()
	err := w.Run(func(p *Proc) {
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Park(b, 0)
			}()
		}
		p.Park(other, 0)
		if n := <-rung; n != 1 {
			t.Errorf("running = %d right after the last ring, want 1", n)
		}
		wg.Wait()
		seen := b.Rings()
		b.Ring() // nobody parked: the next Park with seen returns at once
		p.Park(b, seen)
		if n := w.running.Load(); n != 1 {
			t.Errorf("running = %d after a stale Park, want 1", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.running.Load(); n != 0 {
		t.Errorf("running = %d after Run, want 0", n)
	}
}
