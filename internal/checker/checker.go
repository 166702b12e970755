// Package checker implements the opt-in RMA semantic checker: a shadow
// access tracker that records every remotely-applied put/get/accumulate/RMW
// as a byte interval on the target exposure and flags pairs of overlapping
// accesses that are not separated by a synchronization call and not both
// atomic: the runtime check for erroneous overlapping access.
//
// One Checker watches one simulated world: every rank's engine reports into
// the same instance (see ForWorld), so conflicts between different origins
// are visible. Accesses retire when the target's collective completion
// window closes (CompleteCollective) — the one synchronization every origin
// participates in; an origin-side Order or Complete advances a per-pair
// epoch so that origin's own accesses on opposite sides never pair up, but
// deliberately leaves the accesses live for other origins (Complete does
// not synchronize two different origins with each other). Point-to-point
// message ordering between ranks is not modeled: a pair legalized only by
// a send/recv token is still reported.
//
// The checker deliberately reports *potential* races: two overlapping
// non-atomic accesses inside one completion window are flagged even if the
// simulated schedule happened to apply them in a benign order, matching the
// MPI-3 definition of conflicting accesses rather than one observed
// interleaving.
package checker

import (
	"fmt"
	"io"
	"sync"

	"mpi3rma/internal/core"
	"mpi3rma/internal/simnet"
)

// Bounds keep a misbehaving program from turning the checker into a memory
// leak: per-exposure live accesses and globally-stored conflicts are capped,
// with drops counted so a truncated report is never mistaken for a clean one.
const (
	maxLive      = 8192
	maxConflicts = 1024
)

var (
	regMu    sync.Mutex
	registry = map[*simnet.Network]*Checker{}
)

// ForWorld returns the Checker shared by every rank of the given simulated
// network, creating it on first use. Engines on the same network that enable
// checking all report into this one instance.
func ForWorld(net *simnet.Network) *Checker {
	regMu.Lock()
	defer regMu.Unlock()
	c := registry[net]
	if c == nil {
		c = New()
		registry[net] = c
	}
	return c
}

// Conflict describes one pair of overlapping accesses to the same exposure
// that no synchronization separates. First is the earlier-recorded access.
type Conflict struct {
	Target int    // world rank owning the exposure
	Handle uint64 // target_mem handle the pair collided on
	Lo, Hi int    // overlapping byte range [Lo, Hi) within the exposure
	First  core.Access
	Second core.Access
	Advice string // the synchronization that would have legalized the pair
}

func (c Conflict) String() string {
	return fmt.Sprintf(
		"conflicting accesses to rank %d handle %#x bytes [%d,%d): %s op %d from rank %d overlaps %s op %d from rank %d; %s",
		c.Target, c.Handle, c.Lo, c.Hi,
		c.First.Kind, c.First.OpID, c.First.Origin,
		c.Second.Kind, c.Second.OpID, c.Second.Origin,
		c.Advice)
}

type targetKey struct {
	target int
	handle uint64
}

// originFoot is the merged byte footprint one origin has outstanding on one
// exposure, split by access direction. It pre-filters conflict scans: a new
// access that does not overlap any footprint cannot conflict with anything.
type originFoot struct {
	writes intervalSet
	reads  intervalSet
}

type handleState struct {
	live    []core.Access
	origins map[int]*originFoot
}

// Checker records accesses and detects conflicting overlaps. It implements
// core.AccessRecorder. All methods are safe for concurrent use by the rank
// goroutines of a simulated world.
type Checker struct {
	mu        sync.Mutex
	targets   map[targetKey]*handleState
	conflicts []Conflict
	recorded  int64
	dropped   int64 // conflicts discarded beyond maxConflicts
	truncated int64 // live accesses discarded beyond maxLive (footprints still tracked)
}

// New returns an empty Checker. Most callers want ForWorld instead.
func New() *Checker {
	return &Checker{targets: map[targetKey]*handleState{}}
}

// RecordAccess notes one remotely-applied access and checks it against every
// live access it could conflict with.
func (c *Checker) RecordAccess(a core.Access) {
	if a.Len <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recorded++
	key := targetKey{a.Target, a.Handle}
	hs := c.targets[key]
	if hs == nil {
		hs = &handleState{origins: map[int]*originFoot{}}
		c.targets[key] = hs
	}

	lo, hi := a.Disp, a.Disp+a.Len
	// Pre-filter on merged footprints: a write can conflict with anything,
	// a read only with writes.
	hot := false
	for _, f := range hs.origins {
		if f.writes.Overlaps(lo, hi) || (a.Kind.IsWrite() && f.reads.Overlaps(lo, hi)) {
			hot = true
			break
		}
	}
	if hot {
		for i := range hs.live {
			b := &hs.live[i]
			oLo, oHi, ok := overlap(lo, hi, b.Disp, b.Disp+b.Len)
			if !ok || !conflicting(a, *b) {
				continue
			}
			c.addConflict(Conflict{
				Target: a.Target, Handle: a.Handle, Lo: oLo, Hi: oHi,
				First: *b, Second: a, Advice: advise(*b, a),
			})
		}
	}

	f := hs.origins[a.Origin]
	if f == nil {
		f = &originFoot{}
		hs.origins[a.Origin] = f
	}
	if a.Kind.IsWrite() {
		f.writes.Add(lo, hi)
	} else {
		f.reads.Add(lo, hi)
	}
	if len(hs.live) >= maxLive {
		c.truncated++
		return
	}
	hs.live = append(hs.live, a)
}

// conflicting reports whether two overlapping accesses to the same exposure
// form an MPI-3 conflicting pair. Callers guarantee byte overlap.
func conflicting(a, b core.Access) bool {
	if !a.Kind.IsWrite() && !b.Kind.IsWrite() {
		return false // concurrent reads never conflict
	}
	if a.Origin == b.Origin && a.OpID == b.OpID {
		// Members of one aggregate apply in member order at the target.
		// (Op ids are per-origin request counters, so the comparison is
		// only meaningful within one origin.)
		return false
	}
	if a.Atomic && b.Atomic {
		return false // element-wise atomicity legalizes any overlap
	}
	if a.Origin != b.Origin {
		return true
	}
	// Same origin: ordering attributes serialize the pair at the target,
	// and an epoch boundary (Order/Complete between the issues) separates
	// them by definition.
	if a.Ordered && b.Ordered {
		return false
	}
	if a.Epoch != b.Epoch {
		return false
	}
	return true
}

// advise names the synchronization that would have made the pair legal.
func advise(first, second core.Access) string {
	if first.Origin != second.Origin {
		return fmt.Sprintf("separate the epochs with CompleteCollective, or make both accesses atomic (WithAtomic / session WithAtomicity) to allow concurrent rank-%d/rank-%d access",
			first.Origin, second.Origin)
	}
	return "issue Order or Complete to the target between the two operations, give both WithOrdering, or make both atomic"
}

func (c *Checker) addConflict(cf Conflict) {
	if len(c.conflicts) >= maxConflicts {
		c.dropped++
		return
	}
	c.conflicts = append(c.conflicts, cf)
}

// RetireTarget drops every live access recorded against target, from all
// origins — the collective completion window closed. It is the only
// retirement: an origin's Complete orders only that origin's own
// operations (the separation the epoch stamp already carries), so their
// accesses stay live on purpose. A different origin touching the same
// bytes later is still unsynchronized with them, and dropping them on
// Complete would make its detection depend on wall-clock scheduling.
func (c *Checker) RetireTarget(target int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.targets {
		if key.target == target {
			delete(c.targets, key)
		}
	}
}

// Conflicts returns a copy of the conflicts found so far.
func (c *Checker) Conflicts() []Conflict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Conflict(nil), c.conflicts...)
}

// ConflictCount returns the number of stored conflicts. It does not include
// conflicts dropped past the storage cap; see Dropped.
func (c *Checker) ConflictCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conflicts)
}

// Recorded returns the total number of accesses observed.
func (c *Checker) Recorded() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recorded
}

// Truncated returns how many accesses were not kept live past the
// per-exposure cap: later accesses were not checked against them, so a
// nonzero count means the conflicts found may be incomplete.
func (c *Checker) Truncated() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.truncated
}

// Dropped returns how many conflicts were discarded beyond the storage cap.
func (c *Checker) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Reset clears all recorded state, conflicts, and counters.
func (c *Checker) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.targets = map[targetKey]*handleState{}
	c.conflicts = nil
	c.recorded, c.dropped, c.truncated = 0, 0, 0
}

// Report writes a human-readable summary of all conflicts to w. A report
// over truncated state says that it is incomplete.
func (c *Checker) Report(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.conflicts) == 0 {
		fmt.Fprintf(w, "rma checker: %d accesses recorded, no conflicts\n", c.recorded)
	} else {
		fmt.Fprintf(w, "rma checker: %d accesses recorded, %d conflicts:\n", c.recorded, len(c.conflicts))
	}
	for i := range c.conflicts {
		fmt.Fprintf(w, "  %s\n", c.conflicts[i].String())
	}
	if c.dropped > 0 {
		fmt.Fprintf(w, "  ... and %d more conflicts dropped past the %d-entry cap\n", c.dropped, maxConflicts)
	}
	if c.truncated > 0 {
		fmt.Fprintf(w, "  incomplete: %d accesses past the %d-entry live cap were never checked against later ones\n", c.truncated, maxLive)
	}
}
