package mpi2rma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

func newWorld(t *testing.T, ranks int) *runtime.World {
	t.Helper()
	w := runtime.NewWorld(runtime.Config{Ranks: ranks})
	t.Cleanup(func() {
		if n := rma.LostRequests(w); n != 0 {
			t.Errorf("%d nonblocking requests lost: never observed, never completed", n)
		}
		w.Close()
	})
	return w
}

// TestFenceExchange reproduces Figure 1a: both ranks put into the peer's
// window between fences and verify the data after the closing fence.
func TestFenceExchange(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		region := p.Alloc(8)
		win, err := r.WinCreate(p.Comm(), region)
		if err != nil {
			t.Errorf("rank %d: WinCreate: %v", p.Rank(), err)
			return
		}
		src := p.Alloc(8)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(100+p.Rank()))
		p.WriteLocal(src, 0, buf[:])

		if err := win.Fence(); err != nil {
			t.Errorf("rank %d: fence 1: %v", p.Rank(), err)
		}
		peer := 1 - p.Rank()
		if err := win.Put(src, 8, datatype.Byte, peer, 0, 8, datatype.Byte); err != nil {
			t.Errorf("rank %d: put: %v", p.Rank(), err)
		}
		if err := win.Fence(); err != nil {
			t.Errorf("rank %d: fence 2: %v", p.Rank(), err)
		}
		got := binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset, 8))
		if got != uint64(100+peer) {
			t.Errorf("rank %d: window holds %d, want %d", p.Rank(), got, 100+peer)
		}
		if err := win.Free(); err != nil {
			t.Errorf("rank %d: free: %v", p.Rank(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPSCW reproduces Figure 1b: ranks 1 and 2 start access epochs toward
// rank 0's posted window, put and get, then complete; rank 0 waits.
func TestPSCW(t *testing.T) {
	w := newWorld(t, 3)
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		region := p.Alloc(64)
		if p.Rank() == 0 {
			p.WriteLocal(region, 32, bytes.Repeat([]byte{9}, 16))
		}
		win, err := r.WinCreate(p.Comm(), region)
		if err != nil {
			t.Errorf("rank %d: WinCreate: %v", p.Rank(), err)
			return
		}
		if p.Rank() == 0 {
			if err := win.Post([]int{1, 2}); err != nil {
				t.Errorf("post: %v", err)
			}
			if err := win.Wait(); err != nil {
				t.Errorf("wait: %v", err)
			}
			got := p.Mem().Snapshot(region.Offset, 32)
			for i := 0; i < 16; i++ {
				if got[i] != 1 || got[16+i] != 2 {
					t.Errorf("window bytes %d/%d = %d/%d, want 1/2", i, 16+i, got[i], got[16+i])
					break
				}
			}
		} else {
			if err := win.Start([]int{0}); err != nil {
				t.Errorf("rank %d: start: %v", p.Rank(), err)
			}
			src := p.Alloc(16)
			p.WriteLocal(src, 0, bytes.Repeat([]byte{byte(p.Rank())}, 16))
			if err := win.Put(src, 16, datatype.Byte, 0, (p.Rank()-1)*16, 16, datatype.Byte); err != nil {
				t.Errorf("rank %d: put: %v", p.Rank(), err)
			}
			dst := p.Alloc(16)
			if err := win.Get(dst, 16, datatype.Byte, 0, 32, 16, datatype.Byte); err != nil {
				t.Errorf("rank %d: get: %v", p.Rank(), err)
			}
			if got := p.ReadLocal(dst, 0, 16); got[0] != 9 {
				t.Errorf("rank %d: get returned %d, want 9", p.Rank(), got[0])
			}
			if err := win.Complete(); err != nil {
				t.Errorf("rank %d: complete: %v", p.Rank(), err)
			}
		}
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLockUnlock reproduces Figure 1c: passive-target exclusive locks
// serialize increments to a counter in rank 1's window; rank 1 does not
// participate beyond creating the window.
func TestLockUnlock(t *testing.T) {
	w := newWorld(t, 3)
	const itersPerRank = 20
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		region := p.Alloc(8)
		win, err := r.WinCreate(p.Comm(), region)
		if err != nil {
			t.Errorf("rank %d: WinCreate: %v", p.Rank(), err)
			return
		}
		if p.Rank() != 1 {
			val := p.Alloc(8)
			one := make([]byte, 8)
			binary.LittleEndian.PutUint64(one, 1)
			p.WriteLocal(val, 0, one)
			for i := 0; i < itersPerRank; i++ {
				if err := win.Lock(LockExclusive, 1); err != nil {
					t.Errorf("rank %d: lock: %v", p.Rank(), err)
				}
				if err := win.Accumulate(0, val, 1, datatype.Int64, 1, 0, 1, datatype.Int64); err == nil {
					// AccOp 0 is AccNone, promoted to replace — we want sum.
				}
				if err := win.Unlock(1); err != nil {
					t.Errorf("rank %d: unlock: %v", p.Rank(), err)
				}
			}
		}
		p.Barrier()
		if p.Rank() == 1 {
			// Replace semantics: the counter holds 1 (each accumulate
			// replaced); this subtest asserts locking didn't corrupt it.
			got := binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset, 8))
			if got != 1 {
				t.Errorf("counter = %d, want 1 (replace semantics)", got)
			}
		}
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLockAccumulateSum uses a shared lock with sum accumulates: the
// element-atomic accumulate makes the total exact even under concurrency.
func TestLockAccumulateSum(t *testing.T) {
	w := newWorld(t, 4)
	const itersPerRank = 25
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		region := p.Alloc(8)
		win, err := r.WinCreate(p.Comm(), region)
		if err != nil {
			t.Errorf("rank %d: WinCreate: %v", p.Rank(), err)
			return
		}
		if p.Rank() != 0 {
			val := p.Alloc(8)
			one := make([]byte, 8)
			binary.LittleEndian.PutUint64(one, 1)
			p.WriteLocal(val, 0, one)
			for i := 0; i < itersPerRank; i++ {
				if err := win.Lock(LockShared, 0); err != nil {
					t.Errorf("rank %d: lock: %v", p.Rank(), err)
				}
				if err := win.Accumulate(2 /* AccSum */, val, 1, datatype.Int64, 0, 0, 1, datatype.Int64); err != nil {
					t.Errorf("rank %d: accumulate: %v", p.Rank(), err)
				}
				if err := win.Unlock(0); err != nil {
					t.Errorf("rank %d: unlock: %v", p.Rank(), err)
				}
			}
		}
		p.Barrier()
		if p.Rank() == 0 {
			got := binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset, 8))
			want := uint64(3 * itersPerRank)
			if got != want {
				t.Errorf("counter = %d, want %d", got, want)
			}
		}
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEpochLegality checks that RMA calls outside any epoch are rejected.
func TestEpochLegality(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		region := p.Alloc(8)
		win, err := r.WinCreate(p.Comm(), region)
		if err != nil {
			t.Errorf("WinCreate: %v", err)
			return
		}
		src := p.Alloc(8)
		if err := win.Put(src, 8, datatype.Byte, 1-p.Rank(), 0, 8, datatype.Byte); !errors.Is(err, rma.ErrEpoch) {
			t.Errorf("rank %d: put outside epoch: err = %v, want ErrEpoch", p.Rank(), err)
		}
		p.Barrier()
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverlapDetection: the MPI-2 "erroneous" pattern — two origins
// storing to overlapping bytes in one fence epoch — is flagged by the
// strawman's semantic checker, enabled on the session the window rides
// (rma.WithChecker): the layer needs no overlap ledger of its own.
func TestOverlapDetection(t *testing.T) {
	w := newWorld(t, 3)
	var chk *rma.Checker
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithChecker())
		r := Attach(p)
		region := p.Alloc(64)
		win, err := r.WinCreate(p.Comm(), region)
		if err != nil {
			t.Errorf("WinCreate: %v", err)
			return
		}
		win.Fence()
		if p.Rank() != 0 {
			src := p.Alloc(32)
			// Both origins write [0,32): overlapping, erroneous in MPI-2.
			if err := win.Put(src, 32, datatype.Byte, 0, 0, 32, datatype.Byte); err != nil {
				t.Errorf("rank %d: put: %v", p.Rank(), err)
			}
		}
		win.Fence()
		win.Free()
		if p.Rank() == 0 {
			chk = s.Checker()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := chk.Conflicts()
	if len(cs) != 1 {
		t.Fatalf("checker reported %d conflicts, want the one overlapping pair: %v", len(cs), cs)
	}
	c := cs[0]
	origins := [2]int{c.First.Origin, c.Second.Origin}
	if c.Target != 0 || c.Lo != 0 || c.Hi != 32 || (origins != [2]int{1, 2} && origins != [2]int{2, 1}) {
		t.Errorf("conflict %v, want ranks 1 and 2 overlapping on rank 0 bytes [0,32)", c)
	}
}
