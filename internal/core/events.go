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
// The queue is deliberately lossy at the rim: producers are whichever
// goroutines deliver (whichever holds the target NIC's delivery token)
// and must never block on a slow consumer, so a full queue drops the
// incoming event and counts it in Dropped. Counters — not the queue — remain the source of
// truth; the queue is a wakeup/telemetry surface. Waiters that must not
// miss anything use Select, which registers on the watermarks themselves
// (watermark.go), under the counter locks, and is therefore lossless.

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

// SelectCase is one arm of a Select call — one thing a wait blocks on: a
// request, or a watermark toward rank reaching threshold. Build it with
// OnRequest, OnApplied, OnConfirmed, or OnQuiescent.
type SelectCase struct {
	kind      selKind
	req       *Request
	rank      int // of the communicator as built; of the world once Select resolved it
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

// Select blocks until any of the cases fires and returns the index of the
// winning case, its event, and a validation error (asynchronous failures
// are delivered as EvFault or EvRequestDone events, not as the error
// return). When several cases are satisfied at once the lowest index
// wins. Like Wait it advances the rank's virtual clock to the winning
// event's time. With zero cases Select fails immediately — there is
// nothing it could wait for — wrapping ErrBadHandle.
func (e *Engine) Select(comm *runtime.Comm, cases ...SelectCase) (int, Event, error) {
	if len(cases) == 0 {
		return -1, Event{}, fmt.Errorf("core: select with no cases: %w", ErrBadHandle)
	}
	e.Progress()
	res := make([]SelectCase, len(cases))
	for i, c := range cases {
		switch c.kind {
		case selRequest:
			if c.req == nil {
				return -1, Event{}, fmt.Errorf("core: select case %d: nil request: %w", i, ErrBadHandle)
			}
			res[i] = c
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
			res[i] = SelectCase{kind: c.kind, rank: world, threshold: th}
		default:
			return -1, Event{}, fmt.Errorf("core: select case %d: zero case — construct cases with OnRequest/OnApplied/OnConfirmed/OnQuiescent: %w", i, ErrBadHandle)
		}
	}

	i, ev := e.wait(res)
	e.proc.NIC().CPU().AdvanceTo(ev.At)
	return i, ev, nil
}
