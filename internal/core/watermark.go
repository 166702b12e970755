package core

import (
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/vtime"
)

// One watermark, one wait (DESIGN.md §11).
//
// The paper's MPI_RMA_complete and MPI_RMA_order are one idea: wait until a
// cumulative delivery counter reaches what I issued. The engine keeps two
// such counters per peer — confirmed (origin side, under cmplMu: what the
// target has reported back) and applied (target side, under tgtMu: what
// this rank has applied from the origin) — and every call that blocks on
// one, on a request, or on any mix of them is the loop in wait.

// waiter is one registration on a watermark, woken outside the owner's
// lock when the count reaches threshold or a sticky failure makes that
// moot. A local wait's waiter rings the bell the waiting call sleeps on;
// a parked completion probe's answers the remote origin with a kProbeAck.
type waiter struct {
	threshold int64
	bell      *runtime.Bell // a local call's: the engine's bell; nil for a probe
	probe     *Engine       // a parked probe: the engine that answers it
	origin    int           // ... whom
	reqID     uint64        // ... about which request
	arrival   vtime.Time    // ... and when the probe arrived
}

// wake tells the waiter to look again: a ring for a local call (which
// re-tries its cases, so a ring too many is harmless), the
// answer for a probe — unless it was a failure's poke below the threshold,
// which leaves nothing to answer yet. A probe is answered no earlier than
// it arrived: the raise that satisfies it can be stamped before that in
// virtual time, having merely run later on the host.
func (wt *waiter) wake(count int64, at vtime.Time) {
	if wt.bell != nil {
		wt.bell.Ring()
	} else if count >= wt.threshold {
		wt.probe.sendProbeAck(wt.origin, wt.reqID, count, vtime.Later(wt.arrival, at))
	}
}

// wakeSlot holds, for the common wait on a single case, the waiter that
// rings the engine's bell, which every blocked call of the rank parks on.
// Slots are reused (Engine.slots) and a wakeup may trail the wait it was
// meant for — a request's OnDone, a raise's wake after the waker moved
// on — so the bell can ring for another wait; every sleeper re-checks what
// it waits for. one[0].bell is set once, here: a late waker may read it
// while the slot's next user sets the threshold.
type wakeSlot struct {
	one [1]waiter
}

// takeSlot returns a wake slot, a reused one when there is one.
func (e *Engine) takeSlot() *wakeSlot {
	s := e.slots.get()
	if s == nil {
		s = &wakeSlot{}
		s.one[0].bell = e.bell
	}
	return s
}

// watermark is a cumulative count, the virtual stamp of the latest report
// that raised it, and whoever waits for it to rise further. Its owner's
// lock (cmplMu or tgtMu) guards all three.
type watermark struct {
	count   int64
	at      vtime.Time
	waiters []*waiter
}

// raise lifts the watermark to count and unlinks and returns the waiters
// that satisfies, for the caller to wake once it has released the lock.
func (w *watermark) raise(count int64, at vtime.Time) []*waiter {
	w.count, w.at = count, vtime.Later(w.at, at)
	var ready []*waiter
	rest := w.waiters[:0]
	for _, wt := range w.waiters {
		if count >= wt.threshold {
			ready = append(ready, wt)
		} else {
			rest = append(rest, wt)
		}
	}
	clear(w.waiters[len(rest):])
	w.waiters = rest
	return ready
}

// link registers (on) or unregisters wt in list; unregistering a waiter a
// raise already unlinked is a no-op.
func link(list *[]*waiter, wt *waiter, on bool) {
	if on {
		*list = append(*list, wt)
		return
	}
	for i, have := range *list {
		if have == wt {
			last := len(*list) - 1
			(*list)[i], (*list)[last] = (*list)[last], nil
			*list = (*list)[:last]
			return
		}
	}
}

// wakeAll runs every waiter's wake; no lock may be held.
func wakeAll(ws []*waiter, count int64, at vtime.Time) {
	for _, wt := range ws {
		wt.wake(count, at)
	}
}

// poke returns the waiters registered toward rank (AllRanks: every peer)
// without unlinking any: a sticky failure was recorded and each must look
// again. A local wait finds the failure and leaves by itself; a parked
// probe, woken with a count below its threshold, stays.
func poke(marks []watermark, rank int) []*waiter {
	var ws []*waiter
	for peer := range marks {
		if rank == AllRanks || peer == rank {
			ws = append(ws, marks[peer].waiters...)
		}
	}
	return ws
}

// fault is a sticky failure and the virtual time it was declared at.
type fault struct {
	err error
	at  vtime.Time
}

// noPeer asks stickyLocked about no rank at all: a target-side wait fails
// only with the engine itself.
const noPeer = -2

// stickyLocked is the one place the sticky tiers are ordered, most severe
// first: the engine-fatal apply fault (this rank's own memory is
// untrustworthy), then the confirmed death of world, then its failed link.
// Asked about AllRanks it answers with the first death, then the first
// link failure, the engine has seen (recordSticky files both under that
// key). Caller holds cmplMu.
func (e *Engine) stickyLocked(world int) fault {
	if e.applyErr.err != nil {
		return e.applyErr
	}
	if f, dead := e.failedRanks[world]; dead {
		return f
	}
	return e.failedLinks[world]
}

// sticky is stickyLocked for callers that do not hold cmplMu.
func (e *Engine) sticky(world int) fault {
	e.cmplMu.Lock()
	defer e.cmplMu.Unlock()
	return e.stickyLocked(world)
}

// stickyFor returns the sticky failure that would keep operations to a
// world rank from ever completing, or nil.
func (e *Engine) stickyFor(world int) error { return e.sticky(world).err }

// Err reports the engine's sticky degradation, most severe tier first:
// the engine-fatal apply fault, the first confirmed rank death
// (ErrRankFailed), then the first exhausted link (ErrLinkFailed). A
// non-nil Err does not stop operations toward live, reachable peers —
// degradation is per-peer; Err only lets callers notice it without
// tracking every request.
func (e *Engine) Err() error { return e.sticky(AllRanks).err }

// selKind discriminates the cases a wait can block on. The zero value is
// invalid so a zero SelectCase{} literal is rejected rather than silently
// never firing.
type selKind uint8

const (
	selRequest selKind = iota + 1
	selApplied
	selConfirmed
	selQuiescent
	// selInbound is selApplied for collective completion: any sticky
	// failure of this rank ends it — a degraded world cannot promise
	// collective completion — and its stamp is the latest application from
	// anyone.
	selInbound
)

// tryCase reports whether a case is satisfied, or has failed, right now.
// Its rank is a world rank (Select has mapped it).
func (e *Engine) tryCase(rc *SelectCase) (Event, bool) {
	var f fault
	switch rc.kind {
	case selRequest:
		r := rc.req
		r.mu.Lock()
		defer r.mu.Unlock()
		return Event{Kind: EvRequestDone, At: r.at, Rank: r.target, Req: r, Err: r.err}, r.done
	case selApplied:
		e.tgtMu.Lock()
		wm := e.applied[rc.rank]
		e.tgtMu.Unlock()
		if wm.count >= rc.threshold {
			return Event{Kind: EvDelivery, At: wm.at, Rank: rc.rank, Count: wm.count}, true
		}
		f = e.sticky(noPeer)
	case selInbound:
		if f = e.sticky(AllRanks); f.err != nil {
			break
		}
		e.tgtMu.Lock()
		count, last := e.applied[rc.rank].count, e.lastApplied
		e.tgtMu.Unlock()
		if count >= rc.threshold {
			return Event{Kind: EvDelivery, At: last, Rank: rc.rank, Count: count}, true
		}
	case selConfirmed, selQuiescent:
		e.cmplMu.Lock()
		wm := e.confirmed[rc.rank]
		f = e.stickyLocked(rc.rank)
		e.cmplMu.Unlock()
		if wm.count >= rc.threshold {
			kind := EvConfirm
			if rc.kind == selQuiescent {
				kind = EvQuiescent
			}
			return Event{Kind: kind, At: wm.at, Rank: rc.rank, Count: wm.count}, true
		}
	}
	return Event{Kind: EvFault, At: f.at, Rank: rc.rank, Err: f.err}, f.err != nil
}

// linkCase registers (on) or unregisters wt where the case's wakeups come
// from. A request wakes through OnDone, which has no unregistering and
// needs none: the callback dies with the request, and until then costs a
// losing wait's request one non-blocking send on a channel nobody reads.
func (e *Engine) linkCase(rc *SelectCase, wt *waiter, on bool) {
	switch rc.kind {
	case selRequest:
		if on {
			rc.req.OnDone(func(error) { wt.wake(0, 0) })
		}
	case selApplied, selInbound:
		e.tgtMu.Lock()
		link(&e.applied[rc.rank].waiters, wt, on)
		e.tgtMu.Unlock()
	case selConfirmed, selQuiescent:
		e.cmplMu.Lock()
		link(&e.confirmed[rc.rank].waiters, wt, on)
		e.cmplMu.Unlock()
	}
}

// wait is the one blocking loop, under Complete, the Order fence,
// CompleteCollective, Select and WaitAny: try the cases in index order and
// return the first hit — the lowest satisfied index wins. The first miss
// registers a waiter per case and tries again; later misses sleep until a
// waiter is woken; the way out unregisters them from the watermarks. It
// starts no goroutine. Every wakeup — a raise, a request's end, a
// failure's poke — rings the bell of one reusable wake slot, and the state
// it announces is written before the ring, so a ring after the try read the
// bell's count cannot be missed. It sleeps in Proc.Park, so the rank counts
// as idle to the world's quiet step meanwhile.
//
// Under the progress serializer this rank is inside the library, so it IS
// the progress engine for its own deferred applies: it drains the queue
// before every try, and a deferred apply arriving while it sleeps rings the
// engine's bell, which every slot shares.
//
// It does not advance the virtual clock; callers do, to the event's At.
func (e *Engine) wait(cases []SelectCase) (int, Event) {
	var slot *wakeSlot
	var ws []waiter
	var seen uint64
	for {
		if slot != nil {
			seen = e.bell.Rings()
			if e.progQ != nil {
				e.Progress()
			}
		}
		for i := range cases {
			if ev, ok := e.tryCase(&cases[i]); ok {
				for j := range ws {
					e.linkCase(&cases[j], &ws[j], false)
				}
				if slot != nil {
					e.slots.put(slot)
				}
				return i, ev
			}
		}
		if slot != nil {
			e.proc.Park(e.bell, seen)
			continue
		}
		slot = e.takeSlot()
		ws = slot.one[:]
		if len(cases) > 1 {
			ws = make([]waiter, len(cases))
			for i := range ws {
				ws[i].bell = e.bell
			}
		}
		for i := range cases {
			ws[i].threshold = cases[i].threshold
			e.linkCase(&cases[i], &ws[i], true)
		}
	}
}

// waits lists every registered counter waiter: the one enumeration Health
// reports and the failure pings read, so a call blocked on a counter —
// whichever call — is visible to both.
func (e *Engine) waits() []telemetry.WaitHealth {
	var out []telemetry.WaitHealth
	list := func(counter string, marks []watermark) {
		for peer := range marks {
			for _, wt := range marks[peer].waiters {
				c := counter
				if wt.probe != nil {
					c = "probe"
				}
				out = append(out, telemetry.WaitHealth{Peer: peer, Counter: c, Threshold: wt.threshold, Have: marks[peer].count})
			}
		}
	}
	e.cmplMu.Lock()
	list("confirmed", e.confirmed)
	e.cmplMu.Unlock()
	e.tgtMu.Lock()
	list("applied", e.applied)
	e.tgtMu.Unlock()
	return out
}
