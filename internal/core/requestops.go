package core

import (
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
)

// Request-completion variants (the paper: "the request parameter in the
// interface may be used to check for completion of the RMA (using
// MPI_Wait, MPI_Test, and variants)"). WaitAll lives in request.go; these
// are the Any/Some/All family.

// WaitAny blocks until at least one request in reqs completes and returns
// its index. Nil and already-complete entries return immediately. With an
// empty slice it returns -1.
func WaitAny(reqs ...*Request) int {
	if len(reqs) == 0 {
		return -1
	}
	// Fast path: anything already done (or nil, which counts as done)?
	for i, r := range reqs {
		if r == nil {
			return i
		}
		if r.Test() {
			return i
		}
	}
	cases := make([]SelectCase, len(reqs))
	for i, r := range reqs {
		cases[i] = OnRequest(r)
	}
	i, _ := reqs[0].e.wait(cases)
	reqs[i].Wait()
	return i
}

// TestAll reports whether every request in reqs has completed (nil
// entries count as complete); completed entries advance the caller's
// virtual clock like Test.
func TestAll(reqs ...*Request) bool {
	all := true
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if !r.Test() {
			all = false
		}
	}
	return all
}

// TestSome returns the indices of completed requests (nil entries
// included), advancing the caller's virtual clock for each.
func TestSome(reqs ...*Request) []int {
	var done []int
	for i, r := range reqs {
		if r == nil || r.Test() {
			done = append(done, i)
		}
	}
	return done
}

// StrictDebugAttrs is the "most stringent rules while debugging" preset
// of requirement 5: every operation ordered, remotely complete, and
// atomic. Install it per communicator (SetCommAttrs) or engine-wide
// (Options.DefaultAttrs) while debugging, then remove it without touching
// any transfer call.
const StrictDebugAttrs = AttrOrdering | AttrRemoteComplete | AttrAtomic

// ExposeCollective is the collective allocation interface the paper notes
// was "currently being discussed and formulated": every member of comm
// contributes size bytes; each receives the descriptors of all members'
// exposures (indexed by comm rank) plus its own local region. It is sugar
// over the non-collective Expose — nothing in the engine requires it.
func (e *Engine) ExposeCollective(comm *runtime.Comm, size int) ([]TargetMem, memsim.Region, error) {
	tm, region := e.ExposeNew(size)
	tms, err := ExchangeTargetMem(comm, tm)
	return tms, region, err
}
