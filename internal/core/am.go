package core

import (
	"fmt"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/vtime"
)

// Active-message extension. The paper deliberately leaves remote method
// invocation out of the strawman ("the MPI Forum has formed a working
// group to investigate active messages and RMI") but motivates it as the
// natural expansion of the rma_optype: "invocation of a remote function
// ... or signaling a remote thread". This file implements that expansion
// point so the Xfer opcode space demonstrably accommodates it; it is
// marked an extension, and internal/gasnet carries the full AM treatment.

// AMHandler runs at the target when an active message arrives. It executes
// on the target's serializer path (always atomic: a handler is a critical
// section by definition, exactly the "handler of an active message" the
// paper names as an implicit communication thread). payload is the
// initiator's data; at is the virtual time the handler ran.
type AMHandler func(src int, payload []byte, at vtime.Time)

// RegisterAM installs handler under id on this rank. Remote ranks invoke
// it with InvokeAM. Registration is local; the id space is application
// managed.
func (e *Engine) RegisterAM(id uint64, handler AMHandler) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.am.get(id) != nil {
		return fmt.Errorf("core: active-message id %d already registered", id)
	}
	e.am.set(id, handler, false)
	return nil
}

// InvokeAM sends an active message to trank of comm. The operation counts
// toward Complete like any other RMA operation; with AttrRemoteComplete
// the returned request completes after the handler has run.
func (e *Engine) InvokeAM(id uint64, payload []byte, trank int, comm *runtime.Comm, attrs Attr) (*Request, error) {
	target, err := e.worldRank(trank, comm)
	if err != nil {
		return nil, err
	}
	m := e.newMsg(target, kAM, len(payload))
	m.Hdr[hHandle] = id
	copy(m.Payload, payload)
	// A handler is a critical section: always atomic, so it holds the
	// target's coarse lock where that is the serializer, and it sees
	// ring-held deposits applied in order.
	return e.issue(target, e.effectiveAttrs(comm, attrs), latNone, m, landing{}, nil)
}

// startAM finds the handler and schedules it on the serializer.
func (r *applyOp) startAM(at vtime.Time) {
	e := r.e
	r.am = e.am.get(r.handle)
	e.scheduleApply(r, at, len(r.m.Payload))
}

// applyAM runs the registered handler at the target.
func (r *applyOp) applyAM(end vtime.Time) {
	if r.am == nil {
		r.e.proc.NIC().BadReq.Inc()
	} else {
		r.am(r.m.Src, r.m.Payload, end)
	}
	r.fin(end)
}
