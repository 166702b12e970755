package mpi2rma

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// TestWinCreateMultipleWindows: windows on the same communicator are
// independent (distinct ids, distinct memories).
func TestWinCreateMultipleWindows(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		comm := p.Comm()
		regA := p.Alloc(16)
		regB := p.Alloc(16)
		winA, err := r.WinCreate(comm, regA)
		if err != nil {
			t.Errorf("winA: %v", err)
			return
		}
		winB, err := r.WinCreate(comm, regB)
		if err != nil {
			t.Errorf("winB: %v", err)
			return
		}
		if winA.id == winB.id {
			t.Error("two windows share an id")
		}
		winA.Fence()
		winB.Fence()
		src := p.Alloc(16)
		p.WriteLocal(src, 0, bytes.Repeat([]byte{0xA1}, 16))
		if p.Rank() == 1 {
			if err := winA.Put(src, 16, datatype.Byte, 0, 0, 16, datatype.Byte); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		winA.Fence()
		winB.Fence()
		if p.Rank() == 0 {
			if got := p.Mem().Snapshot(regA.Offset, 1)[0]; got != 0xA1 {
				t.Errorf("winA byte %x", got)
			}
			if got := p.Mem().Snapshot(regB.Offset, 1)[0]; got != 0 {
				t.Errorf("winB contaminated: %x", got)
			}
		}
		winA.Free()
		winB.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPSCWTest covers the nonblocking Wait (MPI_Win_test).
func TestPSCWTest(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		comm := p.Comm()
		region := p.Alloc(8)
		win, err := r.WinCreate(comm, region)
		if err != nil {
			t.Errorf("wincreate: %v", err)
			return
		}
		if p.Rank() == 0 {
			if err := win.Post([]int{1}); err != nil {
				t.Errorf("post: %v", err)
			}
			// Spin on Test until the exposure epoch closes.
			for {
				done, err := win.Test()
				if err != nil {
					t.Errorf("test: %v", err)
					return
				}
				if done {
					break
				}
			}
			if got := p.Mem().Snapshot(region.Offset, 1)[0]; got != 0x5E {
				t.Errorf("byte %x after Test-closed epoch", got)
			}
		} else {
			if err := win.Start([]int{0}); err != nil {
				t.Errorf("start: %v", err)
			}
			src := p.Alloc(8)
			p.WriteLocal(src, 0, bytes.Repeat([]byte{0x5E}, 8))
			if err := win.Put(src, 8, datatype.Byte, 0, 0, 8, datatype.Byte); err != nil {
				t.Errorf("put: %v", err)
			}
			if err := win.Complete(); err != nil {
				t.Errorf("complete: %v", err)
			}
		}
		p.Barrier()
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSharedLockConcurrency: shared locks admit concurrent holders, and
// an exclusive request waits for all of them.
func TestSharedThenExclusive(t *testing.T) {
	w := newWorld(t, 4)
	var concurrentShared atomic.Int32
	var sawTwoShared atomic.Bool
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		comm := p.Comm()
		region := p.Alloc(8)
		win, err := r.WinCreate(comm, region)
		if err != nil {
			t.Errorf("wincreate: %v", err)
			return
		}
		switch p.Rank() {
		case 1, 2: // shared holders
			if err := win.Lock(LockShared, 0); err != nil {
				t.Errorf("shared lock: %v", err)
			}
			if concurrentShared.Add(1) == 2 {
				sawTwoShared.Store(true)
			}
			// Hold long enough for the other shared holder to join.
			for i := 0; i < 100 && !sawTwoShared.Load(); i++ {
				p.Advance(1000)
			}
			concurrentShared.Add(-1)
			if err := win.Unlock(0); err != nil {
				t.Errorf("shared unlock: %v", err)
			}
		case 3: // exclusive requester
			if err := win.Lock(LockExclusive, 0); err != nil {
				t.Errorf("exclusive lock: %v", err)
			}
			if concurrentShared.Load() != 0 {
				t.Error("exclusive lock granted while shared locks held")
			}
			if err := win.Unlock(0); err != nil {
				t.Errorf("exclusive unlock: %v", err)
			}
		}
		p.Barrier()
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFenceRejectsOpenEpochs: fence during PSCW or lock epochs is
// erroneous.
func TestFenceRejectsOpenEpochs(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		comm := p.Comm()
		region := p.Alloc(8)
		win, err := r.WinCreate(comm, region)
		if err != nil {
			t.Errorf("wincreate: %v", err)
			return
		}
		if p.Rank() == 0 {
			if err := win.Post([]int{1}); err != nil {
				t.Errorf("post: %v", err)
			}
			if err := win.Fence(); !errors.Is(err, rma.ErrEpoch) {
				t.Errorf("fence inside an exposure epoch: err = %v, want ErrEpoch", err)
			}
			if err := win.Wait(); err != nil {
				t.Errorf("wait: %v", err)
			}
		} else {
			if err := win.Start([]int{0}); err != nil {
				t.Errorf("start: %v", err)
			}
			if err := win.Fence(); !errors.Is(err, rma.ErrEpoch) {
				t.Errorf("fence inside an access epoch: err = %v, want ErrEpoch", err)
			}
			if err := win.Complete(); err != nil {
				t.Errorf("complete: %v", err)
			}
		}
		p.Barrier()
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// epochStep is one call in a scripted walk through a window's epochs and
// the sentinel it must fail with (nil: the call must succeed): ErrEpoch
// for a synchronization call out of order, ErrBadHandle for any use of a
// freed window.
type epochStep struct {
	what string
	do   func() error
	want error
}

// walkEpochs runs script on a fresh window on each of two ranks; script
// receives the rank, its window and the other rank.
func walkEpochs(t *testing.T, script func(p *runtime.Proc, win *Win, peer int) []epochStep) {
	t.Helper()
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		win, err := r.WinCreate(p.Comm(), p.Alloc(8))
		if err != nil {
			t.Errorf("wincreate: %v", err)
			return
		}
		for _, st := range script(p, win, 1-p.Rank()) {
			if err := st.do(); !errors.Is(err, st.want) {
				t.Errorf("rank %d: %s: err = %v, want %v", p.Rank(), st.what, err, st.want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMisuseErrors: double post, complete without start, wait without
// post, unlock without lock, double start, double free.
func TestMisuseErrors(t *testing.T) {
	walkEpochs(t, func(_ *runtime.Proc, win *Win, peer int) []epochStep {
		return []epochStep{
			{"Complete without Start", win.Complete, rma.ErrEpoch},
			{"Wait without Post", win.Wait, rma.ErrEpoch},
			{"Unlock without Lock", func() error { return win.Unlock(peer) }, rma.ErrEpoch},
			{"Post", func() error { return win.Post([]int{peer}) }, nil},
			{"double Post", func() error { return win.Post([]int{peer}) }, rma.ErrEpoch},
			{"Start", func() error { return win.Start([]int{peer}) }, nil},
			{"double Start", func() error { return win.Start([]int{peer}) }, rma.ErrEpoch},
			{"Complete", win.Complete, nil},
			{"Wait", win.Wait, nil},
			{"Free", win.Free, nil},
			{"double Free", win.Free, rma.ErrBadHandle},
		}
	})
}

// TestEpochOrderErrors: the remaining illegal orders — test without post,
// a second lock on one rank, free inside a lock epoch, put after free.
func TestEpochOrderErrors(t *testing.T) {
	walkEpochs(t, func(p *runtime.Proc, win *Win, peer int) []epochStep {
		src := p.Alloc(8)
		return []epochStep{
			{"Test without Post", func() error { _, err := win.Test(); return err }, rma.ErrEpoch},
			{"Lock", func() error { return win.Lock(LockExclusive, peer) }, nil},
			{"double Lock on one rank", func() error { return win.Lock(LockExclusive, peer) }, rma.ErrEpoch},
			{"Free inside a lock epoch", win.Free, rma.ErrEpoch},
			{"Unlock", func() error { return win.Unlock(peer) }, nil},
			{"Free", win.Free, nil},
			{"Put after Free", func() error { return win.Put(src, 8, datatype.Byte, peer, 0, 8, datatype.Byte) }, rma.ErrBadHandle},
		}
	})
}

// TestGetFromWindow reads initialized target memory under a fence epoch.
func TestGetFromWindow(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		comm := p.Comm()
		region := p.Alloc(32)
		if p.Rank() == 0 {
			p.WriteLocal(region, 0, bytes.Repeat([]byte{0xD4}, 32))
		}
		win, err := r.WinCreate(comm, region)
		if err != nil {
			t.Errorf("wincreate: %v", err)
			return
		}
		win.Fence()
		if p.Rank() == 1 {
			dst := p.Alloc(32)
			if err := win.Get(dst, 32, datatype.Byte, 0, 0, 32, datatype.Byte); err != nil {
				t.Errorf("get: %v", err)
			}
			if got := p.ReadLocal(dst, 0, 32); !bytes.Equal(got, bytes.Repeat([]byte{0xD4}, 32)) {
				t.Error("window get mismatch")
			}
		}
		win.Fence()
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWindowOnSubComm: windows work on communicators smaller than the
// world.
func TestWindowOnSubComm(t *testing.T) {
	w := newWorld(t, 4)
	err := w.Run(func(p *runtime.Proc) {
		r := Attach(p)
		comm := p.Comm()
		if p.Rank() >= 2 {
			return // not a member
		}
		sub := comm.Sub([]int{0, 1})
		region := p.Alloc(8)
		win, err := r.WinCreate(sub, region)
		if err != nil {
			t.Errorf("wincreate: %v", err)
			return
		}
		win.Fence()
		if sub.Rank() == 1 {
			src := p.Alloc(8)
			p.WriteLocal(src, 0, bytes.Repeat([]byte{3}, 8))
			if err := win.Put(src, 8, datatype.Byte, 0, 0, 8, datatype.Byte); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		win.Fence()
		if sub.Rank() == 0 {
			if got := p.Mem().Snapshot(region.Offset, 1)[0]; got != 3 {
				t.Errorf("subcomm window byte %d", got)
			}
		}
		win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}
