package runtime

import (
	gort "runtime"
	"testing"
	"time"

	"mpi3rma/internal/simnet"
)

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

// TestWorldCloseReleasesGoroutines: creating and closing many worlds must
// not leak scrambler goroutines.
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
		if gort.NumGoroutine() <= before+2 {
			return
		}
		gort.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after closing 10 worlds", before, gort.NumGoroutine())
}
