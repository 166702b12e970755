package core

import (
	"fmt"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/vtime"
)

// Event-driven completion.
//
// The pull-blocking surface (Wait/Await/Complete) forces the origin to
// burn its time inside the library exactly when one-sided communication
// should be freeing it to compute. The push side has two parts, both
// lossless: Request.OnDone runs a callback on the request's terminal
// transition, and Select blocks on any of several cases — a request, or a
// watermark reaching a threshold — registering on the watermarks
// themselves (watermark.go), under the engine's mu. Every completion
// signal already funnels through two joins, so the events Select returns
// carry exactly the counter movements Complete/Order observe, with the
// same virtual timestamps:
//
//   - noteApplied (target side, under mu): every applied operation,
//     serial, sharded, or serialized, raises the per-origin delivery
//     counter here (EvDelivery).
//   - noteConfirmed (origin side, under mu): every target→origin
//     report (ack, reply, probe answer, notification) folds into
//     confirmed[target] here (EvConfirm, EvQuiescent); duplicates and
//     reordered reports raise nothing.
//
// The counters are the source of truth; an Event is what Select returns
// when one of them (or a request, or a sticky failure) satisfies a case.

// EventKind discriminates completion events.
type EventKind uint8

const (
	// EvRequestDone reports a request's terminal transition: Req is done,
	// Err carries its asynchronous failure (nil on success).
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
	// everything this rank had issued to it when Select was called
	// (confirmed >= sent) — the moment Complete(rank) would return
	// without waiting.
	EvQuiescent
	// EvFault reports a sticky failure: Err wraps ErrRankFailed (Rank is
	// the rank the membership service confirmed dead), ErrLinkFailed (Rank is the unreachable target,
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

// Event is what Select returns for the case that fired. At is the
// deterministic virtual time of the underlying transition (the apply end,
// the report arrival, the request completion).
type Event struct {
	Kind  EventKind
	At    vtime.Time
	Rank  int      // world rank; see the kind's documentation
	Req   *Request // EvRequestDone only
	Count int64    // cumulative counter value (EvDelivery/EvConfirm/EvQuiescent)
	Err   error    // EvRequestDone failure or EvFault cause
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
			c.req.observe()
			res[i] = c
		case selApplied, selConfirmed, selQuiescent:
			if c.rank < 0 || c.rank >= comm.Size() {
				return -1, Event{}, fmt.Errorf("core: select case %d: rank %d out of range for communicator of size %d: %w", i, c.rank, comm.Size(), ErrBadHandle)
			}
			world := comm.WorldRank(c.rank)
			th := c.threshold
			if c.kind == selQuiescent {
				e.flushTarget(world)
				e.mu.Lock()
				th = e.targets[world].sent
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
