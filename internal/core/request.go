package core

import (
	"sync"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
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
// when the operation has been applied at the target.
type Request struct {
	e  *Engine
	id uint64
	// target is the world rank the operation addresses, so a link failure
	// can find and fail the requests that will never complete.
	target int

	mu   sync.Mutex
	done bool
	at   vtime.Time
	val  []byte
	err  error
	// waited is set once a Wait parks on the engine's bell: finish rings it.
	waited bool

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
	// histogram. Populated by newRequest only while telemetry is enabled,
	// before the request escapes the issuing goroutine, so finish may read
	// them without the lock.
	latKind  uint8
	issuedAt vtime.Time
}

// ID returns the request's engine-local id — the operation id its trace
// events carry, for correlating spans across ranks.
func (r *Request) ID() uint64 { return r.id }

// newRequest enters a request toward target into the engine table. While
// telemetry is enabled, a latKind other than latNone also stamps its issue
// time, so its completion lands in that latency histogram.
func (e *Engine) newRequest(target int, latKind uint8) *Request {
	r := &Request{e: e, target: target}
	if latKind != latNone && e.observers().lat != nil {
		r.latKind, r.issuedAt = latKind, e.proc.Now()
	}
	e.mu.Lock()
	e.reqSeq++
	r.id = e.reqSeq
	e.reqs[r.id] = r
	e.mu.Unlock()
	return r
}

// complete marks the request done at virtual time at with optional result
// value, and removes it from the engine table. Idempotence guards against
// protocol duplicates.
func (r *Request) complete(at vtime.Time, val []byte) {
	r.finish(at, val, nil)
}

// completeErr marks the request done with a failure the origin only
// learned of asynchronously (e.g. a get the target could not serve).
func (r *Request) completeErr(at vtime.Time, err error) {
	r.finish(at, nil, err)
}

// finish is the single terminal transition of a request. err (and at,
// val) are stored in the same critical section that marks the request
// done, under the mutex Err acquires, so a goroutine released by Wait,
// Await or Select always observes the request's error. Callbacks
// run after the lock is released (still exactly once: finish is
// idempotent and captures-and-clears the list), so an OnDone callback may
// itself call request or engine methods without deadlocking.
func (r *Request) finish(at vtime.Time, val []byte, err error) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	r.at = at
	r.val = val
	r.err = err
	cbs := r.onDone
	r.onDone = nil
	if r.waited {
		r.e.bell.Ring()
	}
	r.mu.Unlock()
	r.e.mu.Lock()
	delete(r.e.reqs, r.id)
	r.e.mu.Unlock()
	if r.latKind != latNone {
		if lat := r.e.observers().lat; lat != nil {
			lat[r.latKind].Observe(int64(at - r.issuedAt))
		}
	}
	for _, cb := range cbs {
		cb(err)
	}
	r.e.record(trace.KindRequestDone, at, r.target, r.id, 0, 0, err)
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
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.at
}

// Value returns the operation's result bytes (read-modify-write old
// values); nil for transfers. Valid once done.
func (r *Request) Value() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.val
}

// Err returns the asynchronous failure of the operation, if any (valid
// once done). Errors detectable at issue time are returned by the issuing
// call instead; Err reports failures the target discovered, such as a get
// from unexposed memory.
func (r *Request) Err() error {
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

// lookupRequest finds an outstanding request by id (nil if completed or
// unknown).
func (e *Engine) lookupRequest(id uint64) *Request {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reqs[id]
}
