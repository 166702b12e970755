package core

import (
	"fmt"
	"sync"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/vtime"
)

// Event-driven completion.
//
// The pull-blocking surface (Wait/Await/Complete) forces the origin to
// burn its time inside the library exactly when one-sided communication
// should be freeing it to compute. This file adds the push side: a
// bounded MPMC completion queue fed at the two watermark joins every
// completion signal already funnels through —
//
//   - noteApplied (target side, under tgtMu): every applied operation,
//     serial, sharded, or serialized, increments the per-origin delivery
//     counter here. Publishing EvDelivery at this point means an event
//     is emitted if and only if the counter Complete/Order observe moved,
//     with the same virtual timestamp.
//   - noteConfirmed (origin side, under cmplMu): every target→origin
//     report (ack, reply, probe answer, notification) folds into
//     confirmed[target] here. EvConfirm fires only when the fold raised
//     the counter, so duplicates and reordered reports publish nothing —
//     the event stream is monotone exactly like the counters.
//
// plus the request completion point (Request.finish) and the two sticky
// failure points (onLinkFailed, failEngine). Because events are published
// at the same joins, under the same locks, with the same vtime stamps,
// the event order observed through one queue is consistent with what
// Complete/Order would have established: an EvQuiescent for target t is
// published only after every EvDelivery that made t quiescent, and an
// event's At never precedes the At of the counter movement it reports.
//
// The queue is deliberately lossy at the rim: producers are delivery
// goroutines (NIC agents, shard workers, serializers) and must never
// block on a slow consumer, so a full queue drops the incoming event and
// counts it in Dropped. Counters — not the queue — remain the source of
// truth; the queue is a wakeup/telemetry surface. Waiters that must not
// miss anything use Select, whose count-threshold waiters are serviced
// under the counter locks and are therefore lossless.

// EventKind discriminates completion events.
type EventKind uint8

const (
	// EvRequestDone reports a request's terminal transition: Req is done,
	// Err carries its asynchronous failure (nil on success). Exactly one
	// EvRequestDone is published per request.
	EvRequestDone EventKind = iota + 1
	// EvDelivery reports a target-side application: an operation from
	// world rank Rank was applied to this rank's memory, raising the
	// cumulative per-origin delivery counter to Count.
	EvDelivery
	// EvConfirm reports origin-side confirmation progress: a report from
	// world rank Rank raised this rank's confirmed counter for that
	// target to Count.
	EvConfirm
	// EvQuiescent reports that target Rank has confirmed application of
	// everything this rank had issued to it when the event was published
	// (confirmed >= sent) — the moment Complete(rank) would return
	// without waiting.
	EvQuiescent
	// EvFault reports a sticky failure: Err wraps ErrRankFailed (Rank is
	// the rank the membership service confirmed dead — published exactly
	// once per death), ErrLinkFailed (Rank is the unreachable target,
	// which is still alive), or ErrApplyFault (Rank is AllRanks; the
	// local apply pipeline is poisoned).
	EvFault
)

// String names the event kind for logs and tests.
func (k EventKind) String() string {
	switch k {
	case EvRequestDone:
		return "request-done"
	case EvDelivery:
		return "delivery"
	case EvConfirm:
		return "confirm"
	case EvQuiescent:
		return "quiescent"
	case EvFault:
		return "fault"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one completion-queue entry. At is the deterministic virtual
// time of the underlying transition (the apply end, the report arrival,
// the request completion), not the wall time of queue insertion; Seq is
// the queue-local publication sequence (1, 2, 3, ... in publication
// order, including dropped events).
type Event struct {
	Kind  EventKind
	At    vtime.Time
	Seq   uint64
	Rank  int      // world rank; see the kind's documentation
	Req   *Request // EvRequestDone only
	Count int64    // cumulative counter value (EvDelivery/EvConfirm/EvQuiescent)
	Err   error    // EvRequestDone failure or EvFault cause
}

// DefaultEventQueueCap is the completion-queue capacity when EnableEvents
// is called with a non-positive capacity.
const DefaultEventQueueCap = 1024

// CompletionQueue is a bounded MPMC queue of completion events. Producers
// are the engine's delivery paths and never block: when the queue is full
// the incoming event is dropped and counted. Consumers drain with Poll
// (non-blocking) or Wait (blocking). Neither advances the rank's virtual
// clock — events may be consumed long after the virtual instant they
// report; use Select for clock-advancing waits.
type CompletionQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []Event
	head   int
	n      int
	seq    uint64
	closed bool

	// Published counts events offered to the queue (accepted or dropped);
	// Dropped counts the subset rejected because the queue was full.
	Published stats.Counter
	Dropped   stats.Counter
	depth     stats.Gauge
}

func newCompletionQueue(capacity int) *CompletionQueue {
	q := &CompletionQueue{buf: make([]Event, capacity)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push offers an event; it never blocks. The event receives the next
// publication sequence number whether or not it is accepted.
func (q *CompletionQueue) push(ev Event) {
	q.Published.Inc()
	q.mu.Lock()
	q.seq++
	ev.Seq = q.seq
	if q.closed || q.n == len(q.buf) {
		q.mu.Unlock()
		q.Dropped.Inc()
		return
	}
	q.buf[(q.head+q.n)%len(q.buf)] = ev
	q.n++
	q.depth.Set(int64(q.n))
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *CompletionQueue) popLocked() Event {
	ev := q.buf[q.head]
	q.buf[q.head] = Event{} // drop references (Req, Err) for the GC
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.depth.Set(int64(q.n))
	return ev
}

// Poll returns the oldest queued event without blocking; ok is false when
// the queue is empty.
func (q *CompletionQueue) Poll() (ev Event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return Event{}, false
	}
	return q.popLocked(), true
}

// Wait blocks until an event is available and returns it; ok is false
// only when the queue has been closed (the world shut down) and drained.
func (q *CompletionQueue) Wait() (ev Event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		if q.closed {
			return Event{}, false
		}
		q.cond.Wait()
	}
	return q.popLocked(), true
}

// Len returns the number of queued events; Cap the queue's capacity.
func (q *CompletionQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Cap returns the queue's fixed capacity.
func (q *CompletionQueue) Cap() int { return len(q.buf) }

// close wakes blocked Wait calls; queued events remain drainable.
func (q *CompletionQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// EnableEvents installs the completion queue (capacity <= 0 selects
// DefaultEventQueueCap). Like EnableTelemetry the first call wins; later
// calls return the installed queue unchanged. Before EnableEvents the
// publication sites pay one atomic nil-check and allocate nothing.
func (e *Engine) EnableEvents(capacity int) *CompletionQueue {
	return e.observe(func(o *observers) {
		if o.evq != nil {
			return
		}
		if capacity <= 0 {
			capacity = DefaultEventQueueCap
		}
		o.evq = newCompletionQueue(capacity)
		if o.tel != nil {
			registerEventMetrics(o.tel, o.evq)
		}
	}).evq
}

// registerEventMetrics exposes the queue's counters under their stable
// dotted names. Called (under hookMu) from whichever of EnableEvents /
// EnableTelemetry runs second.
func registerEventMetrics(reg *telemetry.Registry, q *CompletionQueue) {
	reg.Register("events.published", &q.Published)
	reg.Register("events.dropped", &q.Dropped)
	reg.RegisterGauge("events.queue_depth", &q.depth)
}

// countWaiter is a lossless count-threshold waiter registered by Select:
// it fires (fields set, ch closed) when a cumulative counter for rank
// reaches threshold, or fails (err set, ch closed) when a sticky failure
// makes the threshold unreachable. All fields except ch are guarded by
// the lock of the list holding the waiter (tgtMu for applyWaiters,
// cmplMu for confirmWaiters); they are published by the close(ch) that
// follows the final write.
type countWaiter struct {
	rank      int
	threshold int64
	ch        chan struct{}
	at        vtime.Time
	count     int64
	err       error
	fired     bool // closed (or about to be closed) by a service sweep
	abandoned bool // the Select that registered it lost interest
}

// serviceWaiters removes and returns the waiters in *list satisfied by
// rank's counter reaching count at virtual time at. rank < 0 matches
// every waiter (used with a non-nil err to fail the whole list). Caller
// holds the list's lock and must close each returned waiter's ch after
// releasing it.
func serviceWaiters(list *[]*countWaiter, rank int, count int64, at vtime.Time, err error) []*countWaiter {
	if len(*list) == 0 {
		return nil
	}
	var fired []*countWaiter
	rest := (*list)[:0]
	for _, w := range *list {
		switch {
		case w.abandoned:
			// Prune: its Select already returned through another case.
		case err != nil && (rank < 0 || w.rank == rank):
			w.err, w.at = err, at
			w.fired = true
			fired = append(fired, w)
		case err == nil && w.rank == rank && count >= w.threshold:
			w.count, w.at = count, at
			w.fired = true
			fired = append(fired, w)
		default:
			rest = append(rest, w)
		}
	}
	for i := len(rest); i < len(*list); i++ {
		(*list)[i] = nil
	}
	*list = rest
	return fired
}

// closeWaiters completes a service sweep outside the list lock.
func closeWaiters(fired []*countWaiter) {
	for _, w := range fired {
		close(w.ch)
	}
}

// selKind discriminates Select cases. The zero value is invalid so a
// zero SelectCase{} literal is rejected rather than silently never firing.
type selKind uint8

const (
	selRequest selKind = iota + 1
	selApplied
	selConfirmed
	selQuiescent
)

// SelectCase is one arm of a Select call; build it with OnRequest,
// OnApplied, OnConfirmed, or OnQuiescent.
type SelectCase struct {
	kind      selKind
	req       *Request
	rank      int
	threshold int64
}

// OnRequest fires when the request completes (successfully or not); the
// resulting event is EvRequestDone with the request's error.
func OnRequest(r *Request) SelectCase {
	return SelectCase{kind: selRequest, req: r}
}

// OnApplied fires when this rank's cumulative count of operations applied
// from the given origin rank reaches count — the target-side arm, used by
// a consumer waiting for notified puts to land in its own memory. It does
// not observe remote link failures (only the origin can know its sends
// died); pair it with OnRequest/OnConfirmed arms when that matters.
func OnApplied(origin int, count int64) SelectCase {
	return SelectCase{kind: selApplied, rank: origin, threshold: count}
}

// OnConfirmed fires when the given target has confirmed application of at
// least count of this rank's operations (the origin-side delivery
// counter), or fails with EvFault when the link to the target dies or
// the target rank itself is declared dead (ErrRankFailed).
func OnConfirmed(target int, count int64) SelectCase {
	return SelectCase{kind: selConfirmed, rank: target, threshold: count}
}

// OnQuiescent fires when the given target has confirmed everything this
// rank has issued to it so far — the moment Complete(target) would return
// without waiting. The issued count is captured when Select is called
// (after flushing the target's issue ring); operations issued afterwards
// are not covered. Like Complete it requires every outstanding operation
// to the target to report a delivery counter (batched, notified,
// remote-complete, or reply-bearing); a plain unconfirmed put never
// reports, and the case would wait forever.
func OnQuiescent(target int) SelectCase {
	return SelectCase{kind: selQuiescent, rank: target, threshold: -1}
}

// resolvedCase is a SelectCase after rank mapping and threshold capture.
type resolvedCase struct {
	kind      selKind
	req       *Request
	world     int
	threshold int64
}

// Select blocks until any of the cases fires and returns the index of the
// winning case, its event, and a validation error (asynchronous failures
// are delivered as EvFault or EvRequestDone events, not as the error
// return). Like Wait it advances the rank's virtual clock to the winning
// event's time. With zero cases Select fails immediately — there is
// nothing it could wait for — wrapping ErrBadHandle.
func (e *Engine) Select(comm *runtime.Comm, cases ...SelectCase) (int, Event, error) {
	if len(cases) == 0 {
		return -1, Event{}, fmt.Errorf("core: select with no cases: %w", ErrBadHandle)
	}
	e.Progress()
	res := make([]resolvedCase, len(cases))
	for i, c := range cases {
		switch c.kind {
		case selRequest:
			if c.req == nil {
				return -1, Event{}, fmt.Errorf("core: select case %d: nil request: %w", i, ErrBadHandle)
			}
			res[i] = resolvedCase{kind: selRequest, req: c.req}
		case selApplied, selConfirmed, selQuiescent:
			if c.rank < 0 || c.rank >= comm.Size() {
				return -1, Event{}, fmt.Errorf("core: select case %d: rank %d out of range for communicator of size %d: %w", i, c.rank, comm.Size(), ErrBadHandle)
			}
			world := comm.WorldRank(c.rank)
			th := c.threshold
			if c.kind == selQuiescent {
				e.flushTarget(world)
				th = 0
				e.mu.Lock()
				if ts := e.targets[world]; ts != nil {
					th = ts.sent
				}
				e.mu.Unlock()
			}
			res[i] = resolvedCase{kind: c.kind, world: world, threshold: th}
		default:
			return -1, Event{}, fmt.Errorf("core: select case %d: zero case — construct cases with OnRequest/OnApplied/OnConfirmed/OnQuiescent: %w", i, ErrBadHandle)
		}
	}

	// Fast path: some case is already satisfied (or already failed).
	for i := range res {
		if ev, ok := e.tryCase(&res[i]); ok {
			e.proc.NIC().CPU().AdvanceTo(ev.At)
			return i, ev, nil
		}
	}

	// Under the progress serializer blocked waiting would deadlock: this
	// rank is the progress engine for its own deferred applies. Poll,
	// draining the queue, like waitConfirmed.
	if e.progQ != nil {
		for {
			e.Progress()
			gosched()
			for i := range res {
				if ev, ok := e.tryCase(&res[i]); ok {
					e.proc.NIC().CPU().AdvanceTo(ev.At)
					return i, ev, nil
				}
			}
		}
	}

	// Slow path: one goroutine per case funnels into a buffered channel;
	// stop releases the losers, whose waiters are marked abandoned and
	// pruned by the next service sweep.
	winner := make(chan selWin, len(res))
	stop := make(chan struct{})
	defer close(stop)
	for i := range res {
		rc := &res[i]
		switch rc.kind {
		case selRequest:
			go func(i int, r *Request) {
				select {
				case <-r.waitCh():
					winner <- selWin{i: i}
				case <-stop:
				}
			}(i, rc.req)
		case selApplied:
			w := &countWaiter{rank: rc.world, threshold: rc.threshold, ch: make(chan struct{})}
			e.tgtMu.Lock()
			if c := e.applied[rc.world]; c >= rc.threshold {
				w.count, w.at, w.fired = c, e.appliedAt[rc.world], true
				close(w.ch)
			} else {
				e.applyWaiters = append(e.applyWaiters, w)
			}
			e.tgtMu.Unlock()
			if !waiterFired(&e.tgtMu, w) {
				// An apply fault may have swept the list between the fast
				// path and registration; re-check so the waiter cannot be
				// stranded behind a poisoned pipeline.
				e.cmplMu.Lock()
				aerr := e.applyErr
				e.cmplMu.Unlock()
				if aerr != nil {
					e.tgtMu.Lock()
					fired := serviceWaiters(&e.applyWaiters, -1, 0, e.proc.Now(), aerr)
					e.tgtMu.Unlock()
					closeWaiters(fired)
				}
			}
			go waitCase(i, w, winner, stop, &e.tgtMu)
		case selConfirmed, selQuiescent:
			w := &countWaiter{rank: rc.world, threshold: rc.threshold, ch: make(chan struct{})}
			e.cmplMu.Lock()
			switch {
			case e.confirmed[rc.world] >= rc.threshold:
				w.count, w.at, w.fired = e.confirmed[rc.world], e.confirmedAt[rc.world], true
				close(w.ch)
			case e.applyErr != nil:
				w.err, w.at, w.fired = e.applyErr, e.proc.Now(), true
				close(w.ch)
			case e.failedRanks[rc.world] != nil:
				w.err, w.at, w.fired = e.failedRanks[rc.world], e.proc.Now(), true
				close(w.ch)
			case e.failedLinks[rc.world] != nil:
				w.err, w.at, w.fired = e.failedLinks[rc.world], e.proc.Now(), true
				close(w.ch)
			default:
				e.confirmWaiters = append(e.confirmWaiters, w)
			}
			e.cmplMu.Unlock()
			go waitCase(i, w, winner, stop, &e.cmplMu)
		}
	}

	win := <-winner
	rc := &res[win.i]
	var ev Event
	switch {
	case rc.kind == selRequest:
		r := rc.req
		r.mu.Lock()
		ev = Event{Kind: EvRequestDone, At: r.at, Rank: r.target, Req: r, Err: r.err}
		r.mu.Unlock()
	case win.w.err != nil:
		ev = Event{Kind: EvFault, At: win.w.at, Rank: rc.world, Err: win.w.err}
	case rc.kind == selApplied:
		ev = Event{Kind: EvDelivery, At: win.w.at, Rank: rc.world, Count: win.w.count}
	case rc.kind == selQuiescent:
		ev = Event{Kind: EvQuiescent, At: win.w.at, Rank: rc.world, Count: win.w.count}
	default:
		ev = Event{Kind: EvConfirm, At: win.w.at, Rank: rc.world, Count: win.w.count}
	}
	e.proc.NIC().CPU().AdvanceTo(ev.At)
	return win.i, ev, nil
}

// selWin identifies the winning case of a Select slow path.
type selWin struct {
	i int
	w *countWaiter
}

// waiterFired reports (under the owning lock) whether a waiter has been
// serviced.
func waiterFired(mu *sync.Mutex, w *countWaiter) bool {
	mu.Lock()
	defer mu.Unlock()
	return w.fired
}

// waitCase funnels one count-threshold case into the Select winner
// channel, or marks its waiter abandoned when another case wins first.
func waitCase(i int, w *countWaiter, winner chan<- selWin, stop <-chan struct{}, mu *sync.Mutex) {
	select {
	case <-w.ch:
		winner <- selWin{i: i, w: w}
	case <-stop:
		mu.Lock()
		w.abandoned = true
		mu.Unlock()
	}
}

// tryCase reports whether a resolved case is already satisfied (or has
// already failed), without registering a waiter.
func (e *Engine) tryCase(rc *resolvedCase) (Event, bool) {
	switch rc.kind {
	case selRequest:
		r := rc.req
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.done {
			return Event{Kind: EvRequestDone, At: r.at, Rank: r.target, Req: r, Err: r.err}, true
		}
	case selApplied:
		e.tgtMu.Lock()
		c, at := e.applied[rc.world], e.appliedAt[rc.world]
		e.tgtMu.Unlock()
		if c >= rc.threshold {
			return Event{Kind: EvDelivery, At: at, Rank: rc.world, Count: c}, true
		}
		e.cmplMu.Lock()
		aerr := e.applyErr
		e.cmplMu.Unlock()
		if aerr != nil {
			return Event{Kind: EvFault, At: e.proc.Now(), Rank: rc.world, Err: aerr}, true
		}
	case selConfirmed, selQuiescent:
		e.cmplMu.Lock()
		c, at := e.confirmed[rc.world], e.confirmedAt[rc.world]
		aerr, rerr, lerr := e.applyErr, e.failedRanks[rc.world], e.failedLinks[rc.world]
		e.cmplMu.Unlock()
		if c >= rc.threshold {
			kind := EvConfirm
			if rc.kind == selQuiescent {
				kind = EvQuiescent
			}
			return Event{Kind: kind, At: at, Rank: rc.world, Count: c}, true
		}
		if aerr != nil {
			return Event{Kind: EvFault, At: e.proc.Now(), Rank: rc.world, Err: aerr}, true
		}
		if rerr != nil {
			return Event{Kind: EvFault, At: e.proc.Now(), Rank: rc.world, Err: rerr}, true
		}
		if lerr != nil {
			return Event{Kind: EvFault, At: e.proc.Now(), Rank: rc.world, Err: lerr}, true
		}
	}
	return Event{}, false
}
