package serializer

import (
	"sync"
	"sync/atomic"
	"testing"

	"mpi3rma/internal/vtime"
)

// TestApplyQueueOrderAndTimes: each task runs before its Submit returns,
// in submission order, serialized on the lane.
func TestApplyQueueOrderAndTimes(t *testing.T) {
	q := NewApplyQueue()
	defer q.Close()
	var ends []vtime.Time
	for i := 0; i < 10; i++ {
		q.Submit(Task{Ready: 0, Cost: 5, Fn: func(end vtime.Time) { ends = append(ends, end) }})
		if len(ends) != i+1 {
			t.Fatalf("task %d had not run when Submit returned", i)
		}
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Fatalf("serialized ends not increasing: %v", ends)
		}
	}
	if ends[len(ends)-1] != 50 {
		t.Fatalf("last end = %d, want 50 (10 tasks x 5)", ends[len(ends)-1])
	}
	if q.Applied.Value() != 10 {
		t.Fatalf("applied = %d", q.Applied.Value())
	}
}

// TestApplyQueueConcurrentSubmitters: the lane stays exact when callers
// that do not serialize their submissions share a queue.
func TestApplyQueueConcurrentSubmitters(t *testing.T) {
	q := NewApplyQueue()
	var count atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q.Submit(Task{Ready: 0, Cost: 1, Fn: func(vtime.Time) { count.Add(1) }})
			}
		}()
	}
	wg.Wait()
	if count.Load() != 400 || q.Applied.Value() != 400 {
		t.Fatalf("applied %d (counted %d) of 400 tasks", count.Load(), q.Applied.Value())
	}
	if q.Lane().Work() != 400 {
		t.Fatalf("lane work = %d, want 400", q.Lane().Work())
	}
}

func TestProgressQueueDefersUntilProgress(t *testing.T) {
	q := NewProgressQueue(0)
	var ran atomic.Int64
	for i := 0; i < 5; i++ {
		q.Submit(Task{Ready: 10, Cost: 2, Fn: func(vtime.Time) { ran.Add(1) }})
	}
	if ran.Load() != 0 {
		t.Fatal("tasks ran before Progress")
	}
	if q.Pending() != 5 {
		t.Fatalf("pending = %d", q.Pending())
	}
	n := q.Progress(1000)
	if n != 5 || ran.Load() != 5 {
		t.Fatalf("Progress applied %d, ran %d", n, ran.Load())
	}
	if q.Deferred.Value() != 5 || q.Applied.Value() != 5 {
		t.Fatal("counters wrong")
	}
}

// TestProgressQueueChargesTargetEntry: a task cannot complete before the
// target called Progress — the mechanism's defining inefficiency.
func TestProgressQueueChargesTargetEntry(t *testing.T) {
	q := NewProgressQueue(0)
	var end vtime.Time
	q.Submit(Task{Ready: 10, Cost: 2, Fn: func(e vtime.Time) { end = e }})
	q.Progress(500)
	if end < 502 {
		t.Fatalf("end = %d; must be at least Progress time 500 + cost 2", end)
	}
}

func TestLockStateGrantImmediate(t *testing.T) {
	l := NewLockState()
	var grantedTo int
	var grantedAt vtime.Time
	l.Acquire(3, 100, func(o int, at vtime.Time) { grantedTo, grantedAt = o, at })
	if grantedTo != 3 || grantedAt < 100 {
		t.Fatalf("grant (%d,%d)", grantedTo, grantedAt)
	}
	if l.Holder() != 3 {
		t.Fatalf("holder = %d", l.Holder())
	}
}

func TestLockStateFIFO(t *testing.T) {
	l := NewLockState()
	var grants []int
	grab := func(o int, at vtime.Time) {
		l.Acquire(o, at, func(o int, _ vtime.Time) { grants = append(grants, o) })
	}
	grab(1, 10)
	grab(2, 11)
	grab(3, 12)
	if l.QueueLen() != 2 {
		t.Fatalf("queue = %d", l.QueueLen())
	}
	if err := l.Release(1, 20); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(2, 30); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(3, 40); err != nil {
		t.Fatal(err)
	}
	if len(grants) != 3 || grants[0] != 1 || grants[1] != 2 || grants[2] != 3 {
		t.Fatalf("grant order %v", grants)
	}
	if l.Holder() != -1 {
		t.Fatal("lock should be free")
	}
	if l.Grants.Value() != 3 || l.Contended.Value() != 2 {
		t.Fatalf("grants=%d contended=%d", l.Grants.Value(), l.Contended.Value())
	}
}

func TestLockStateGrantTimesSerialize(t *testing.T) {
	l := NewLockState()
	var at2 vtime.Time
	l.Acquire(1, 10, func(int, vtime.Time) {})
	l.Acquire(2, 11, func(_ int, at vtime.Time) { at2 = at })
	if err := l.Release(1, 50); err != nil {
		t.Fatal(err)
	}
	if at2 < 50 {
		t.Fatalf("second grant at %d, before the first release at 50", at2)
	}
}

func TestLockStateBadRelease(t *testing.T) {
	l := NewLockState()
	if err := l.Release(1, 0); err == nil {
		t.Fatal("release of unheld lock should fail")
	}
	l.Acquire(1, 0, func(int, vtime.Time) {})
	if err := l.Release(2, 0); err == nil {
		t.Fatal("release by non-holder should fail")
	}
}

// TestLockStateTaggedGrants: each queued request gets its own grant with
// its own tag, two from one origin included, in arrival order.
func TestLockStateTaggedGrants(t *testing.T) {
	l := NewLockState()
	type grant struct {
		origin int
		tag    uint64
	}
	var got []grant
	record := func(origin int, tag uint64, _ vtime.Time) { got = append(got, grant{origin, tag}) }
	l.AcquireTagged(1, 10, 0, record)
	l.AcquireTagged(2, 20, 0, record)
	l.AcquireTagged(2, 21, 0, record)
	for _, holder := range []int{1, 2, 2} {
		if err := l.Release(holder, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := []grant{{1, 10}, {2, 20}, {2, 21}}
	if len(got) != len(want) {
		t.Fatalf("grants %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants %v, want %v", got, want)
		}
	}
}

// TestLockStateEvict: evicting a dead holder hands the lock to the next
// live waiter, and the dead origin's queued requests are never granted.
func TestLockStateEvict(t *testing.T) {
	l := NewLockState()
	var grants []int
	g := func(o int, _ vtime.Time) { grants = append(grants, o) }
	l.Acquire(1, 0, g)
	l.Acquire(1, 0, g)
	l.Acquire(2, 0, g)
	l.Acquire(1, 0, g)
	l.Evict(1, 100)
	if l.Holder() != 2 || l.QueueLen() != 0 {
		t.Fatalf("after evicting the holder: holder %d, queue %d; want 2, 0", l.Holder(), l.QueueLen())
	}
	l.Evict(3, 100) // neither holds nor waits: nothing changes
	if err := l.Release(2, 200); err != nil || l.Holder() != -1 {
		t.Fatalf("release by the survivor: %v, holder %d", err, l.Holder())
	}
	if len(grants) != 2 || grants[0] != 1 || grants[1] != 2 {
		t.Fatalf("grants %v, want [1 2]", grants)
	}
}

// TestLockStateCycleAllocatesNothing pins a contended cycle at zero heap
// objects: one holder and three queued tagged requests, then four
// releases. The waiter queue is compacted in place, so it keeps its
// array, and a grant callback bound once is the only one.
func TestLockStateCycleAllocatesNothing(t *testing.T) {
	l := NewLockState()
	grant := func(int, uint64, vtime.Time) {}
	cycle := func() {
		for o := 0; o < 4; o++ {
			l.AcquireTagged(o, uint64(o), 0, grant)
		}
		for o := 0; o < 4; o++ {
			if err := l.Release(o, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a contended lock cycle costs %v allocs, want 0", n)
	}
}

func TestMechanismString(t *testing.T) {
	if MechThread.String() != "thread" || MechCoarseLock.String() != "coarse-lock" || MechProgress.String() != "progress" {
		t.Error("Mechanism.String is wrong")
	}
}

// TestProgressQueueQuantization: a polling target applies work only at
// poll boundaries of virtual time.
func TestProgressQueueQuantization(t *testing.T) {
	q := NewProgressQueue(100)
	var ends []vtime.Time
	q.Submit(Task{Ready: 1, Cost: 2, Fn: func(e vtime.Time) { ends = append(ends, e) }})
	q.Submit(Task{Ready: 100, Cost: 2, Fn: func(e vtime.Time) { ends = append(ends, e) }})
	q.Submit(Task{Ready: 101, Cost: 2, Fn: func(e vtime.Time) { ends = append(ends, e) }})
	q.Progress(0)
	if len(ends) != 3 {
		t.Fatalf("applied %d tasks", len(ends))
	}
	if ends[0] != 102 { // ready 1 -> boundary 100, +2
		t.Errorf("end[0] = %d, want 102", ends[0])
	}
	if ends[1] != 102 { // ready 100 is already a boundary; the WorkLane
		// bound (max(ready+cost, cumulative work)) gives 102
		t.Errorf("end[1] = %d, want 102", ends[1])
	}
	if ends[2] != 202 { // ready 101 -> boundary 200, +2
		t.Errorf("end[2] = %d, want 202", ends[2])
	}
}
