// Package serializer provides the target-side mechanisms that enforce the
// strawman RMA *atomicity* attribute.
//
// The paper (Sections III-B1, V, V-A) identifies three ways a target can
// serialize contending atomic updates when the network itself has no
// atomic sections:
//
//   - A communication thread (implicit or explicit) that applies incoming
//     operations one at a time — "serialized handling of incoming messages
//     without the requirement of locks". Cheap. (Figure 2: "Atomicity +
//     thread serializer".) Here the thread is a mechanism, not a host
//     goroutine: its submitters are the handlers of one NIC, which its
//     delivery token already runs one at a time, so ApplyQueue applies each
//     task on the submitting goroutine and charges it to the thread's
//     virtual-time lane in submission order.
//   - A coarse-grain, MPI-process-level lock the origin must hold across
//     the update — required on systems like Catamount/Cray XT where user
//     threads are unavailable and the network library has no active
//     messages. Expensive. (Figure 2: "Atomicity + coarse grain lock
//     serializer".) The lock *state machine* lives here; the lock
//     *protocol* (request/grant/release messages) lives in internal/core.
//   - Relying on MPI progress: updates are queued and applied only when
//     the target next enters the library ("with associated loss of
//     efficiency").
//
// Each mechanism carries a virtual-time lane so serialized applies also
// serialize in modelled time.
package serializer

import (
	"fmt"
	"slices"

	"mpi3rma/internal/lockrank"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/vtime"
)

// Mechanism selects how a target enforces the atomicity attribute.
type Mechanism int

const (
	// MechThread applies atomic operations one at a time on a single
	// virtual-time lane, in delivery order (the communication-thread
	// serializer).
	MechThread Mechanism = iota
	// MechCoarseLock requires origins to hold a process-level lock across
	// the whole operation.
	MechCoarseLock
	// MechProgress queues atomic operations until the target calls into
	// the library (Progress), modelling systems with neither threads nor
	// active messages.
	MechProgress
)

// String returns the mechanism's name as used in figures.
func (m Mechanism) String() string {
	switch m {
	case MechThread:
		return "thread"
	case MechCoarseLock:
		return "coarse-lock"
	case MechProgress:
		return "progress"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Task is one deferred atomic update. ready is the virtual time its inputs
// are available (message delivery time); cost is the modelled duration of
// the memory update; fn, or op when set, performs the update and is passed
// the virtual time at which the update completed.
type Task struct {
	Ready vtime.Time
	Cost  vtime.Duration
	Fn    func(end vtime.Time)
	Op    Op
}

// Op is an update that carries its own state: a pointer to a record
// converts to it without allocating, where a method value bound to the
// record would be a closure on the heap per task.
type Op interface{ Apply(end vtime.Time) }

// run performs t's update, completed at end.
func (t *Task) run(end vtime.Time) {
	if t.Op != nil {
		t.Op.Apply(end)
		return
	}
	t.Fn(end)
}

// ApplyQueue is the communication-thread serializer: tasks apply strictly
// in submission order on a single virtual-time lane. Submit runs the task
// on the calling goroutine; callers serialize their submissions (the core
// engine submits only from handlers, under the NIC's delivery token), and
// no lock is held across a task, because tasks send.
type ApplyQueue struct {
	lane vtime.WorkLane

	// Applied counts tasks executed.
	Applied stats.Counter
}

// NewApplyQueue returns an idle serializer.
func NewApplyQueue() *ApplyQueue { return &ApplyQueue{} }

// Submit applies t now: its completion is charged to the lane, then t's
// update runs with the completion time.
func (q *ApplyQueue) Submit(t Task) {
	t.run(q.Charge(t.Ready, t.Cost))
}

// Charge counts a task of duration cost, ready at ready, that its caller
// runs itself, and returns its completion time on the lane: Submit without
// a function value to build.
func (q *ApplyQueue) Charge(ready vtime.Time, cost vtime.Duration) vtime.Time {
	q.Applied.Inc()
	return q.lane.Complete(ready, cost)
}

// Lane exposes the serializer's virtual-time lane.
func (q *ApplyQueue) Lane() *vtime.WorkLane { return &q.lane }

// Close is a no-op: Submit leaves nothing queued and nothing running.
func (q *ApplyQueue) Close() {}

// ProgressQueue is the progress-dependent serializer: tasks accumulate
// until the target calls Progress.
type ProgressQueue struct {
	mu    lockrank.Plain
	tasks []Task
	// spare is the list the last Progress drained, emptied, for the next
	// one to queue into: the two alternate, so a steady stream of deferred
	// applies allocates nothing.
	spare []Task
	lane  vtime.WorkLane

	// quantum models how often the target enters the library: a task
	// ready at virtual time r is applied no earlier than the next poll
	// boundary ceil(r/quantum)*quantum. Zero means the target is always
	// in the library (apply at ready).
	quantum vtime.Duration

	// Applied counts tasks executed; Deferred counts submissions.
	Applied  stats.Counter
	Deferred stats.Counter
}

// NewProgressQueue returns an empty queue whose target polls every
// quantum of virtual time (0 = continuously).
func NewProgressQueue(quantum vtime.Duration) *ProgressQueue {
	return &ProgressQueue{quantum: quantum}
}

// quantize rounds t up to the next poll boundary.
func (q *ProgressQueue) quantize(t vtime.Time) vtime.Time {
	if q.quantum <= 0 {
		return t
	}
	qn := vtime.Time(q.quantum)
	return (t + qn - 1) / qn * qn
}

// Submit queues a task for the target's next Progress call.
func (q *ProgressQueue) Submit(t Task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.mu.Unlock()
	q.Deferred.Inc()
}

// Progress applies every queued task in submission order. now is the
// target's current virtual time: a task cannot complete before the target
// actually entered the library, which is precisely the inefficiency of
// this mechanism. It returns the number of tasks applied.
func (q *ProgressQueue) Progress(now vtime.Time) int {
	q.mu.Lock()
	tasks := q.tasks
	q.tasks, q.spare = q.spare, nil
	q.mu.Unlock()
	for i := range tasks {
		t := &tasks[i]
		ready := vtime.Later(q.quantize(t.Ready), now)
		end := q.lane.Complete(ready, t.Cost)
		t.run(end)
		q.Applied.Inc()
	}
	clear(tasks)
	q.mu.Lock()
	q.spare = tasks[:0]
	q.mu.Unlock()
	return len(tasks)
}

// Pending returns the number of queued tasks.
func (q *ProgressQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}

// LockState is the process-level lock state machine for the coarse-grain
// serializer. The owning rank's protocol handlers drive it; grants are
// delivered through the callback passed to Acquire or AcquireTagged. It
// has no lock of its own: calls must be serialized by the caller (the
// owning NIC's delivery token, which every handler holds). Its waiter
// queue is compacted in place, so a steady stream of contended cycles
// allocates nothing.
type LockState struct {
	held    bool
	holder  int
	lane    vtime.Clock
	waiters []lockWaiter

	// Grants counts lock acquisitions; Contended counts acquisitions that
	// had to wait.
	Grants    stats.Counter
	Contended stats.Counter
}

// lockWaiter is one queued request: grant is Acquire's callback, tagged
// AcquireTagged's with its tag.
type lockWaiter struct {
	origin int
	tag    uint64
	at     vtime.Time
	grant  func(origin int, at vtime.Time)
	tagged func(origin int, tag uint64, at vtime.Time)
}

// give grants the lock to w at virtual time at.
func (w *lockWaiter) give(at vtime.Time) {
	if w.tagged != nil {
		w.tagged(w.origin, w.tag, at)
		return
	}
	w.grant(w.origin, at)
}

// NewLockState returns an unheld lock.
func NewLockState() *LockState { return &LockState{holder: -1} }

// Acquire requests the lock for origin at virtual time at. If the lock is
// free, grant is invoked immediately (synchronously); otherwise the
// request queues and grant is invoked from a later Release. The grant
// callback receives the virtual time at which the lock was granted.
func (l *LockState) Acquire(origin int, at vtime.Time, grant func(origin int, at vtime.Time)) {
	l.acquire(lockWaiter{origin: origin, at: at, grant: grant})
}

// AcquireTagged is Acquire for a caller that names each request: grant
// receives tag back, so one callback bound once serves every request —
// two queued requests of one origin included — and a request costs no
// closure.
func (l *LockState) AcquireTagged(origin int, tag uint64, at vtime.Time, grant func(origin int, tag uint64, at vtime.Time)) {
	l.acquire(lockWaiter{origin: origin, tag: tag, at: at, tagged: grant})
}

func (l *LockState) acquire(w lockWaiter) {
	if !l.held {
		l.held = true
		l.holder = w.origin
		l.Grants.Inc()
		w.give(l.lane.AdvanceTo(w.at))
		return
	}
	l.Contended.Inc()
	l.waiters = append(l.waiters, w)
}

// Release frees the lock at virtual time at and hands it to the next
// waiter, if any. origin must be the current holder.
func (l *LockState) Release(origin int, at vtime.Time) error {
	if !l.held || l.holder != origin {
		return fmt.Errorf("serializer: release by rank %d but lock held=%v holder=%d", origin, l.held, l.holder)
	}
	releaseAt := l.lane.AdvanceTo(at)
	if len(l.waiters) == 0 {
		l.held = false
		l.holder = -1
		return nil
	}
	w := l.waiters[0]
	n := copy(l.waiters, l.waiters[1:])
	l.waiters[n] = lockWaiter{}
	l.waiters = l.waiters[:n]
	l.holder = w.origin
	l.Grants.Inc()
	w.give(l.lane.AdvanceTo(vtime.Later(releaseAt, w.at)))
	return nil
}

// Evict drops origin from the lock at virtual time at, for an owning layer
// that knows origin is dead: its queued requests are forgotten, and a lock
// it holds is released to the next waiter as by Release.
func (l *LockState) Evict(origin int, at vtime.Time) {
	l.waiters = slices.DeleteFunc(l.waiters, func(w lockWaiter) bool { return w.origin == origin })
	if l.held && l.holder == origin {
		_ = l.Release(origin, at) // origin holds it: cannot fail
	}
}

// Holder returns the current holder's rank, or -1.
func (l *LockState) Holder() int {
	if !l.held {
		return -1
	}
	return l.holder
}

// QueueLen returns the number of waiting origins.
func (l *LockState) QueueLen() int { return len(l.waiters) }
