package core

import (
	"sync"
	"sync/atomic"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// landing is an origin layout, count instances of dt in region of the
// origin's memory: where a get's reply goes, or where a ring member's data
// is packed from. The zero value (nil dt) lands nothing.
type landing struct {
	region memsim.Region
	count  int
	dt     datatype.Type
}

// Request tracks completion of one nonblocking RMA operation (the paper's
// request parameter, checked with MPI_Wait/MPI_Test analogues). For
// operations without the RemoteComplete attribute the request completes
// locally (origin buffer reusable); with it, the request completes only
// when the operation has been applied at the target. Calling any method
// observes the request: one never observed, nor covered by a later
// Complete toward its target, is lost (LostRequests).
type Request struct {
	e  *Engine
	id uint64
	// target is the world rank the operation addresses, so a link failure
	// can find and fail the requests that will never complete.
	target int

	mu  sync.Mutex
	at  vtime.Time
	err error
	old int64 // an RMW's old value, copied out of its reply

	// onDone holds completion callbacks registered before the request
	// finished; finish captures and clears them under mu, so each runs
	// exactly once (callbacks registered after completion run inline in
	// OnDone instead).
	onDone []func(error)

	// land is where a get's reply payload is scattered, on the delivery
	// goroutine, before the request is completed; a failure there fails
	// the request instead of completing it.
	land landing

	// latKind/issuedAt route the request's completion into a latency.*
	// histogram while telemetry is enabled. Stamped by issue before the
	// request escapes the issuing goroutine, so finish may read them
	// without the lock.
	latKind uint8
	done    bool
	// waited is set once a Wait parks on the engine's bell: finish rings it.
	waited bool
	// cover is 1 + the cover number a loose request was issued under; 0
	// once observed, and for every other request (request.go's end).
	cover    atomic.Uint32
	issuedAt vtime.Time
}

// ID returns the request's engine-local id — the operation id its trace
// events carry, for correlating spans across ranks.
func (r *Request) ID() uint64 { r.observe(); return r.id }

// The request slab (DESIGN.md §5) holds the requests a frame completes. A
// request's id is its issue sequence number; a slotted one's carries its
// slot index + 1 from bit slotShift up, so the sequence number is the
// slot's generation and a frame naming an earlier occupant claims nothing.
const slotShift = 40

// reqSlot is one slot: its pending request, and the request a blocking
// call holding the slot waits on (own), reused.
type reqSlot struct {
	req *Request // nil once claimed, and while free
	own Request
}

// newRequest numbers the next operation toward target and returns its id
// and request: in a free slot when a frame completes it (slotted) — the
// slot's own for a blocking call — and otherwise a new one, or none (nil)
// for a blocking call, done at its send. Caller holds e.mu.
func (e *Engine) newRequest(target int, slotted, blocking bool) (*Request, uint64) {
	e.reqSeq++
	seq := e.reqSeq
	if !slotted {
		if blocking {
			return nil, seq
		}
		return &Request{e: e, id: seq, target: target}, seq
	}
	i := len(e.slab)
	if n := len(e.free); n > 0 {
		i, e.free = int(e.free[n-1]), e.free[:n-1]
	} else {
		e.slab = append(e.slab, new(reqSlot))
	}
	s := e.slab[i]
	r := &s.own
	if !blocking {
		r = new(Request)
	}
	*r = Request{e: e, id: uint64(i+1)<<slotShift | seq, target: target}
	s.req = r
	return r, r.id
}

// claim takes the request pending under id out of the slab, or returns nil
// (done already, or a stale id). Whoever claims a request finishes it.
func (e *Engine) claim(id uint64) *Request {
	i := int(id>>slotShift) - 1
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.slab) || e.slab[i].req == nil || e.slab[i].req.id != id {
		return nil
	}
	s := e.slab[i]
	r := s.req
	s.req = nil
	if r != &s.own { // a blocking call frees its slot itself (await)
		e.free = append(e.free, int32(i))
	}
	return r
}

// settle finishes the request pending under id, if one is (claim).
func (e *Engine) settle(id uint64, at vtime.Time, err error) {
	if r := e.claim(id); r != nil {
		r.finish(at, err)
	}
}

// await ends a blocking call on its slot's own request r: it waits for r,
// frees the slot and returns r's error and old value.
func (e *Engine) await(r *Request) (int64, error) {
	r.Wait()
	old, err := r.old, r.err // done: nothing writes them any more
	e.mu.Lock()
	e.free = append(e.free, int32(r.id>>slotShift)-1)
	e.mu.Unlock()
	return old, err
}

// finish is the single, idempotent terminal transition of a request. err
// (and at) are stored, and all else finish reads is read, in the critical
// section that marks the request done, under the mutex Err acquires: a
// goroutine released by Wait, Await or Select always observes the error,
// and a done blocking request is its slot's to reuse. Callbacks run after
// the lock is released (exactly once: finish captures and clears the
// list), so an OnDone callback may call request or engine methods.
func (r *Request) finish(at vtime.Time, err error) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	r.at = at
	r.err = err
	cbs := r.onDone
	r.onDone = nil
	e, id, target, latKind, issuedAt := r.e, r.id, r.target, r.latKind, r.issuedAt
	if r.waited {
		e.bell.Ring()
	}
	r.mu.Unlock()
	for _, cb := range cbs {
		cb(err)
	}
	e.opDone(target, id, latKind, issuedAt, at, err)
}

// opDone is the tail of every operation's completion, with or without a
// request: its latency, if stamped at issue, and its flight record.
func (e *Engine) opDone(target int, id uint64, latKind uint8, issuedAt, at vtime.Time, err error) {
	if lat := e.observers().lat; latKind != latNone && lat != nil {
		lat[latKind].Observe(int64(at - issuedAt))
	}
	e.record(trace.KindRequestDone, at, target, id, 0, 0, err)
}

// OnDone registers a completion callback: fn runs exactly once with the
// request's asynchronous error (nil on success), on the goroutine that
// completes the request — a delivery goroutine, usually, so fn must be
// brief and must not block on the request itself. The request is done
// before fn runs: a goroutine released by Wait, Await or Select may get
// ahead of fn, so "has run" must be learned from fn itself, not from the
// request being done. Registration is after-the-fact safe: on an
// already-completed request fn runs inline before OnDone returns. The
// error fn receives is the same value Err reports. Registering multiple callbacks is permitted: each fires exactly once.
func (r *Request) OnDone(fn func(error)) {
	r.observe()
	if fn == nil {
		return
	}
	r.mu.Lock()
	if r.done {
		err := r.err
		r.mu.Unlock()
		fn(err)
		return
	}
	r.onDone = append(r.onDone, fn)
	r.mu.Unlock()
}

// Wait blocks until the operation completes, advancing the rank's virtual
// clock to the completion time.
func (r *Request) Wait() {
	r.observe()
	r.mu.Lock()
	for !r.done {
		r.waited = true
		seen := r.e.bell.Rings()
		r.mu.Unlock()
		r.e.proc.Park(r.e.bell, seen) // or a ring meant for another wait: look again
		r.mu.Lock()
	}
	at := r.at
	r.mu.Unlock()
	r.e.proc.NIC().CPU().AdvanceTo(at)
}

// Test reports whether the operation has completed, without blocking; when
// it returns true the rank's virtual clock has been advanced to the
// completion time (MPI_Test semantics).
func (r *Request) Test() bool {
	r.observe()
	r.mu.Lock()
	done, at := r.done, r.at
	r.mu.Unlock()
	if done {
		r.e.proc.NIC().CPU().AdvanceTo(at)
	}
	return done
}

// Await is Wait followed by Err: it blocks until the operation completes,
// advances the rank's virtual clock to the completion time, and returns
// the operation's asynchronous failure, if any. It is the one-call
// completion surface — callers that would pair Wait with Err should use
// Await.
func (r *Request) Await() error {
	r.Wait()
	return r.Err()
}

// CompletedAt returns the virtual completion time (valid once done).
func (r *Request) CompletedAt() vtime.Time {
	r.observe()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.at
}

// Err returns the asynchronous failure of the operation, if any (valid
// once done). Errors detectable at issue time are returned by the issuing
// call instead; Err reports failures the target discovered, such as a get
// from unexposed memory.
func (r *Request) Err() error {
	r.observe()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// WaitAll waits for every request in reqs (nil entries are permitted and
// skipped, so callers can mix blocking and nonblocking issue paths).
func WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}

// Lost requests (DESIGN.md §8). A nonblocking request is loose until
// something observes it (a Request method, a Select case) or a later
// Complete or CompleteCollective toward its target covers it; one still
// loose when counted is lost. loose[t] packs target t's cover number (high
// 32 bits) over its loose count; observing a request uncounts it only
// while the cover number it was issued under is current.

// loosen counts the request issue is about to return as loose.
func (e *Engine) loosen(r *Request) {
	r.cover.Store(uint32(e.loose[r.target].Add(1)>>32) + 1)
}

// observe uncounts r, if it is still loose.
func (r *Request) observe() {
	if c := r.cover.Load(); c != 0 && r.cover.CompareAndSwap(c, 0) {
		w := &r.e.loose[r.target]
		for v := w.Load(); uint32(v>>32) == c-1; v = w.Load() {
			if w.CompareAndSwap(v, v-1) {
				return
			}
		}
	}
}

// cover forgives every request loose toward target, by a new cover number.
func (e *Engine) cover(target int) {
	w := &e.loose[target]
	for v := w.Load(); uint32(v) != 0; v = w.Load() {
		if w.CompareAndSwap(v, (v>>32+1)<<32) {
			return
		}
	}
}

// LostRequests returns how many requests the ranks of w have lost so far,
// and writes a flight record per target each lost requests toward.
func LostRequests(w *runtime.World) int64 {
	var n int64
	for r := range w.TotalRanks() {
		if e := Attached(w.Proc(r)); e != nil {
			for t := range e.loose {
				if k := int64(uint32(e.loose[t].Load())); k > 0 {
					n += k
					e.record(trace.KindLostRequests, e.proc.Now(), t, 0, k, 0, nil)
				}
			}
		}
	}
	return n
}
