// Package mpi2rma implements the MPI-2 one-sided communication interface
// the paper critiques (Section I, Figure 1): collectively created windows
// (MPI_Win_create), the three synchronization methods — fence,
// post-start-complete-wait, lock-unlock — and Put/Get/Accumulate bound to
// epochs.
//
// It exists as the baseline the strawman is measured against: experiment
// E6 compares single-call strawman transfers with the per-epoch costs of
// each MPI-2 mode, and the epoch-legality rules the paper calls out as
// limitations are enforced here. MPI-2's overlapping-access rule
// ("erroneous, not detected") is checked, when asked for, by the strawman's
// own semantic checker: open the rank's session with rma.WithChecker().
//
// The package is deliberately built *on top of* the strawman interface —
// the public rma facade, nothing beneath it: one of the paper's implicit
// claims is that the new interface is strictly more expressive, and
// constructing MPI-2 windows, epochs and passive-target locking from
// target_mem + attributes + completion demonstrates it. Only the window
// protocol's own control messages (PSCW notices, window locks) travel as
// NIC kinds of their own.
package mpi2rma

import (
	"fmt"
	"sync"

	"mpi3rma/internal/portals"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

// Message kinds of the MPI-2 window protocol (PSCW notices, window locks).
const (
	kPost     = portals.KindMPI2Base + 0 // post notice (exposure epoch opened)
	kDone     = portals.KindMPI2Base + 1 // complete notice (access epoch closed)
	kWLockReq = portals.KindMPI2Base + 2 // window lock request
	kWLockGnt = portals.KindMPI2Base + 3 // window lock grant
	kWLockRel = portals.KindMPI2Base + 4 // window lock release
)

// Header words.
const (
	hWin = 0 // window id
	hArg = 1 // lock type / origin count
	hReq = 4 // request id for grants
)

// LockType selects shared or exclusive passive-target locking.
type LockType int

const (
	// LockShared permits concurrent holders (readers / non-conflicting
	// writers under MPI-2 rules).
	LockShared LockType = iota
	// LockExclusive permits a single holder.
	LockExclusive
)

// String returns the lock type's MPI name.
func (t LockType) String() string {
	if t == LockExclusive {
		return "MPI_LOCK_EXCLUSIVE"
	}
	return "MPI_LOCK_SHARED"
}

// RMA is one rank's MPI-2 RMA layer.
type RMA struct {
	proc *runtime.Proc
	s    *rma.Session

	mu     sync.Mutex
	wins   map[uint64]*Win
	winSeq map[uint64]uint64 // per-comm window creation counters

	// Origin-side pending Lock requests, keyed by request id.
	lockWaits  map[uint64]*pendingLock
	lockReqSeq uint64

	// Fences counts completed Win.Fence synchronizations.
	Fences stats.Counter
	// PSCWEpochs counts access epochs opened with Win.Start.
	PSCWEpochs stats.Counter
	// WinLocks counts passive-target locks granted to this rank's origins.
	WinLocks stats.Counter
}

// extKey is the Proc extension slot.
const extKey = "mpi2rma"

// Attach returns the rank's MPI-2 layer, creating it on first use. The
// rank's rma session is opened implicitly with default options if the rank
// has not opened one yet.
func Attach(p *runtime.Proc) *RMA {
	return p.Ext(extKey, func() any {
		r := &RMA{
			proc:   p,
			s:      rma.Open(p),
			wins:   make(map[uint64]*Win),
			winSeq: make(map[uint64]uint64),
		}
		nic := p.NIC()
		nic.RegisterHandler(kPost, r.handlePost)
		nic.RegisterHandler(kDone, r.handleDone)
		nic.RegisterHandler(kWLockReq, r.handleLockReq)
		nic.RegisterHandler(kWLockGnt, r.handleLockGrant)
		nic.RegisterHandler(kWLockRel, r.handleLockRel)
		if reg := r.s.Engine().Metrics(); reg != nil {
			r.RegisterMetrics(reg)
		}
		return r
	}).(*RMA)
}

// RegisterMetrics registers the MPI-2 layer's counters on a metrics
// registry under mpi2.* names. Attach calls it automatically when the
// rank's session already has telemetry enabled.
func (r *RMA) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Register("mpi2.fences", &r.Fences)
	reg.Register("mpi2.pscw_epochs", &r.PSCWEpochs)
	reg.Register("mpi2.win_locks", &r.WinLocks)
}

// epochState tracks which epoch(s) a window is in at this rank.
type epochState struct {
	fenceOpen   bool
	accessGroup map[int]bool // Start() group (comm ranks); nil = none
	postGroup   map[int]bool // Post() group (comm ranks); nil = none
	locked      map[int]bool // comm ranks this rank holds a lock on
}

// Win is one rank's handle on a collectively created window.
type Win struct {
	rma  *RMA
	comm *runtime.Comm
	s    *rma.Session // the rank's session, bound to comm
	id   uint64
	tms  []rma.TargetMem // per comm rank
	mine rma.Region

	mu     sync.Mutex
	notice *runtime.Bell // rings on every post and complete notice
	epoch  epochState
	freed  bool

	// PSCW notification state.
	postsSeen map[int]bool // origins' exposure epochs we have been told of
	donesSeen map[int]bool // access epochs closed toward us
	noticeAt  vtime.Time

	// Passive-target window lock (held at the *target* rank's Win).
	lockHolders map[int]LockType // comm rank -> type
	lockQueue   []lockWaiter
	lockLane    vtime.Clock
}

type lockWaiter struct {
	origin int // comm rank
	typ    LockType
	reqID  uint64
	at     vtime.Time
}

// WinCreate collectively creates a window over each member's region (the
// MPI-2 model the paper contrasts with non-collective target_mem
// creation). All members of comm must call it in the same order with
// their own region; a zero-size region is allowed.
func (r *RMA) WinCreate(comm *runtime.Comm, region rma.Region) (*Win, error) {
	s := r.s.On(comm)
	tms, err := s.Exchange(s.ExposeRegion(region))
	if err != nil {
		return nil, fmt.Errorf("mpi2rma: %w", err)
	}

	r.mu.Lock()
	seq := r.winSeq[comm.ID()]
	r.winSeq[comm.ID()] = seq + 1
	r.mu.Unlock()
	id := comm.ID()<<8 | (seq+1)&0xff

	w := &Win{
		rma:         r,
		comm:        comm,
		s:           s,
		id:          id,
		tms:         tms,
		mine:        region,
		postsSeen:   make(map[int]bool),
		donesSeen:   make(map[int]bool),
		lockHolders: make(map[int]LockType),
	}
	w.notice = r.proc.NewBell()
	r.mu.Lock()
	r.wins[id] = w
	r.mu.Unlock()
	comm.Barrier()
	return w, nil
}

// Free destroys the window. Collective; all epochs must be closed.
func (w *Win) Free() error {
	w.mu.Lock()
	if w.freed {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: window already freed: %w", rma.ErrBadHandle)
	}
	if w.epoch.accessGroup != nil || w.epoch.postGroup != nil || len(w.epoch.locked) > 0 {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Win_free inside an open epoch: %w", rma.ErrEpoch)
	}
	w.freed = true
	w.mu.Unlock()
	w.comm.Barrier()
	w.rma.mu.Lock()
	delete(w.rma.wins, w.id)
	w.rma.mu.Unlock()
	return w.s.Retract(w.tms[w.comm.Rank()])
}

// Comm returns the window's communicator.
func (w *Win) Comm() *runtime.Comm { return w.comm }

// Region returns this rank's window memory.
func (w *Win) Region() rma.Region { return w.mine }

// lookup resolves a window id at this rank.
func (r *RMA) lookup(id uint64) *Win {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wins[id]
}

// accessAllowed enforces MPI-2 epoch legality for an RMA call targeting
// trank: the call must be inside a fence epoch, a Start() access epoch
// containing trank, or a lock epoch on trank.
func (w *Win) accessAllowed(trank int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.freed {
		return fmt.Errorf("mpi2rma: RMA call on freed window: %w", rma.ErrBadHandle)
	}
	if w.epoch.fenceOpen {
		return nil
	}
	if w.epoch.accessGroup != nil && w.epoch.accessGroup[trank] {
		return nil
	}
	if w.epoch.locked[trank] {
		return nil
	}
	return fmt.Errorf("mpi2rma: RMA access to rank %d outside any epoch (MPI-2 requires fence, start, or lock): %w", trank, rma.ErrEpoch)
}

// Put transfers origin data into target rank trank's window memory at
// byte displacement tdisp. Legal only inside an epoch covering trank.
func (w *Win) Put(origin rma.Region, ocount int, odt rma.Type, trank, tdisp, tcount int, tdt rma.Type) error {
	if err := w.accessAllowed(trank); err != nil {
		return err
	}
	// MPI-2 puts have no per-operation completion: the epoch-closing call
	// (Fence, Complete, Unlock) completes every pending operation at the
	// engine level, so the request is dropped here, and that call covers it
	// (it is not a lost request).
	_, err := w.s.Put(origin, ocount, odt, w.tms[trank], tdisp, rma.WithTargetLayout(tcount, tdt))
	return err
}

// Get transfers target window memory into origin memory. Blocking at the
// data level (MPI-2 gets complete at the closing synchronization; here the
// data is fetched eagerly, which is a legal implementation).
func (w *Win) Get(origin rma.Region, ocount int, odt rma.Type, trank, tdisp, tcount int, tdt rma.Type) error {
	if err := w.accessAllowed(trank); err != nil {
		return err
	}
	req, err := w.s.Get(origin, ocount, odt, w.tms[trank], tdisp, rma.WithTargetLayout(tcount, tdt))
	if err != nil {
		return err
	}
	req.Wait()
	return nil
}

// Accumulate combines origin data into the target window with op. MPI-2
// accumulates are element-atomic; that is depositAcc's granularity too.
func (w *Win) Accumulate(op rma.AccOp, origin rma.Region, ocount int, odt rma.Type, trank, tdisp, tcount int, tdt rma.Type) error {
	if err := w.accessAllowed(trank); err != nil {
		return err
	}
	// As with Put: MPI-2 accumulates complete at the epoch-closing call.
	_, err := w.s.Accumulate(op, origin, ocount, odt, w.tms[trank], tdisp, rma.WithTargetLayout(tcount, tdt))
	return err
}

// sendCtl ships a window-protocol control message. A failed send can only
// mean the world is shutting down; the message is dropped and counted
// rather than crashing the caller.
func (w *Win) sendCtl(kind uint8, commDst int, arg uint64, reqID uint64) {
	p := w.rma.proc
	m := &simnet.Message{Dst: w.comm.WorldRank(commDst), Kind: kind}
	m.Hdr[hWin] = w.id
	m.Hdr[hArg] = arg
	m.Hdr[hReq] = reqID
	if _, err := p.NIC().Send(p.Now(), m); err != nil {
		p.NIC().BadReq.Inc()
		return
	}
	p.NIC().CPU().AdvanceTo(m.SentAt)
}

// commRankOfWorld translates a world rank to this window's comm rank.
func (w *Win) commRankOfWorld(world int) int {
	for i, r := range w.comm.Ranks() {
		if r == world {
			return i
		}
	}
	return -1
}
