// Package mpi2rma implements the MPI-2 one-sided communication interface
// the paper critiques (Section I, Figure 1): collectively created windows
// (MPI_Win_create), the three synchronization methods — fence,
// post-start-complete-wait, lock-unlock — and Put/Get/Accumulate bound to
// epochs.
//
// It exists as the baseline the strawman is measured against: experiment
// E6 compares single-call strawman transfers with the per-epoch costs of
// each MPI-2 mode, and the epoch-legality and overlapping-access rules the
// paper calls out as limitations are enforced here (overlap checking
// optional, matching MPI-2's "erroneous, not detected" stance).
//
// The package is deliberately built *on top of* the strawman engine
// (internal/core): one of the paper's implicit claims is that the new
// interface is strictly more expressive, and constructing MPI-2 windows,
// epochs and passive-target locking from target_mem + attributes +
// completion probes demonstrates it.
package mpi2rma

import (
	"fmt"
	"sync"

	"mpi3rma/internal/core"
	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/vtime"
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

// Options configures a rank's MPI-2 RMA layer.
type Options struct {
	// DetectOverlap enables the (expensive, diagnostic) detection of
	// concurrent overlapping stores within one exposure epoch — accesses
	// MPI-2 declares erroneous but implementations do not detect.
	DetectOverlap bool
}

// RMA is one rank's MPI-2 RMA layer.
type RMA struct {
	proc *runtime.Proc
	eng  *core.Engine
	opts Options

	mu     sync.Mutex
	wins   map[uint64]*Win
	winSeq map[uint64]uint64 // per-comm window creation counters

	// Origin-side pending Lock requests, keyed by request id.
	lockWaits  map[uint64]*pendingLock
	lockReqSeq uint64

	// OverlapViolations counts detected concurrent overlapping stores.
	OverlapViolations stats.Counter
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
// strawman engine is attached implicitly with default options if the rank
// has not configured one yet.
func Attach(p *runtime.Proc, opts Options) *RMA {
	return p.Ext(extKey, func() any {
		r := &RMA{
			proc:   p,
			eng:    core.Attach(p, core.Options{}),
			opts:   opts,
			wins:   make(map[uint64]*Win),
			winSeq: make(map[uint64]uint64),
		}
		nic := p.NIC()
		nic.RegisterHandler(kPost, r.handlePost)
		nic.RegisterHandler(kDone, r.handleDone)
		nic.RegisterHandler(kWLockReq, r.handleLockReq)
		nic.RegisterHandler(kWLockGnt, r.handleLockGrant)
		nic.RegisterHandler(kWLockRel, r.handleLockRel)
		if opts.DetectOverlap {
			r.eng.AddAccessRecorder(overlapLedger{r})
		}
		if reg := r.eng.Metrics(); reg != nil {
			r.RegisterMetrics(reg)
		}
		return r
	}).(*RMA)
}

// RegisterMetrics registers the MPI-2 layer's counters on a metrics
// registry under mpi2.* names. Attach calls it automatically when the
// underlying engine already has telemetry enabled.
func (r *RMA) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Register("mpi2.fences", &r.Fences)
	reg.Register("mpi2.pscw_epochs", &r.PSCWEpochs)
	reg.Register("mpi2.win_locks", &r.WinLocks)
	reg.Register("mpi2.overlap_violations", &r.OverlapViolations)
}

// Engine exposes the underlying strawman engine.
func (r *RMA) Engine() *core.Engine { return r.eng }

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
	id   uint64
	tms  []core.TargetMem // per comm rank
	mine memsim.Region

	mu    sync.Mutex
	cond  *sync.Cond
	epoch epochState
	freed bool

	// PSCW notification state.
	postsSeen map[int]bool // origins' exposure epochs we have been told of
	donesSeen map[int]bool // access epochs closed toward us
	noticeAt  vtime.Time

	// Passive-target window lock (held at the *target* rank's Win).
	lockHolders map[int]LockType // comm rank -> type
	lockQueue   []lockWaiter
	lockLane    vtime.Clock

	// Overlap detection state (exposure side).
	overlapMu sync.Mutex
	writes    []writeRecord
}

type lockWaiter struct {
	origin int // comm rank
	typ    LockType
	reqID  uint64
	at     vtime.Time
}

type writeRecord struct {
	origin     int // world rank
	start, end int
}

// WinCreate collectively creates a window over each member's region (the
// MPI-2 model the paper contrasts with non-collective target_mem
// creation). All members of comm must call it in the same order with
// their own region; a zero-size region is allowed.
func (r *RMA) WinCreate(comm *runtime.Comm, region memsim.Region) (*Win, error) {
	tm := r.eng.Expose(region)
	parts := comm.Gather(0, tm.Encode())
	var flat []byte
	if comm.Rank() == 0 {
		for _, part := range parts {
			flat = append(flat, part...)
		}
	}
	flat = comm.Bcast(0, flat)
	n := comm.Size()
	if len(flat)%n != 0 {
		return nil, fmt.Errorf("mpi2rma: descriptor exchange returned %d bytes for %d ranks: %w", len(flat), n, core.ErrEpoch)
	}
	per := len(flat) / n
	tms := make([]core.TargetMem, n)
	for i := 0; i < n; i++ {
		var err error
		tms[i], err = core.DecodeTargetMem(flat[i*per : (i+1)*per])
		if err != nil {
			return nil, fmt.Errorf("mpi2rma: rank %d descriptor: %w", i, err)
		}
	}

	r.mu.Lock()
	seq := r.winSeq[comm.ID()]
	r.winSeq[comm.ID()] = seq + 1
	r.mu.Unlock()
	id := comm.ID()<<8 | (seq+1)&0xff

	w := &Win{
		rma:         r,
		comm:        comm,
		id:          id,
		tms:         tms,
		mine:        region,
		postsSeen:   make(map[int]bool),
		donesSeen:   make(map[int]bool),
		lockHolders: make(map[int]LockType),
	}
	w.cond = sync.NewCond(&w.mu)
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
		return fmt.Errorf("mpi2rma: window already freed: %w", core.ErrBadHandle)
	}
	if w.epoch.accessGroup != nil || w.epoch.postGroup != nil || len(w.epoch.locked) > 0 {
		w.mu.Unlock()
		return fmt.Errorf("mpi2rma: Win_free inside an open epoch: %w", core.ErrEpoch)
	}
	w.freed = true
	w.mu.Unlock()
	w.comm.Barrier()
	w.rma.mu.Lock()
	delete(w.rma.wins, w.id)
	w.rma.mu.Unlock()
	return w.rma.eng.Retract(w.tms[w.comm.Rank()])
}

// Comm returns the window's communicator.
func (w *Win) Comm() *runtime.Comm { return w.comm }

// Region returns this rank's window memory.
func (w *Win) Region() memsim.Region { return w.mine }

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
		return fmt.Errorf("mpi2rma: RMA call on freed window: %w", core.ErrBadHandle)
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
	return fmt.Errorf("mpi2rma: RMA access to rank %d outside any epoch (MPI-2 requires fence, start, or lock): %w", trank, core.ErrEpoch)
}

// Put transfers origin data into target rank trank's window memory at
// byte displacement tdisp. Legal only inside an epoch covering trank.
func (w *Win) Put(origin memsim.Region, ocount int, odt datatype.Type, trank, tdisp, tcount int, tdt datatype.Type) error {
	if err := w.accessAllowed(trank); err != nil {
		return err
	}
	// MPI-2 puts have no per-operation completion: the epoch-closing call
	// (Fence, Complete, Unlock) completes every pending operation at the
	// engine level, so the request is deliberately dropped here.
	//rmalint:ignore lostrequest completion happens at the epoch-closing synchronization
	_, err := w.rma.eng.Put(origin, ocount, odt, w.tms[trank], tdisp, tcount, tdt, trank, w.comm, core.AttrNone)
	return err
}

// Get transfers target window memory into origin memory. Blocking at the
// data level (MPI-2 gets complete at the closing synchronization; here the
// data is fetched eagerly, which is a legal implementation).
func (w *Win) Get(origin memsim.Region, ocount int, odt datatype.Type, trank, tdisp, tcount int, tdt datatype.Type) error {
	if err := w.accessAllowed(trank); err != nil {
		return err
	}
	req, err := w.rma.eng.Get(origin, ocount, odt, w.tms[trank], tdisp, tcount, tdt, trank, w.comm, core.AttrNone)
	if err != nil {
		return err
	}
	req.Wait()
	return nil
}

// Accumulate combines origin data into the target window with op. MPI-2
// accumulates are element-atomic; that is depositAcc's granularity too.
func (w *Win) Accumulate(op core.AccOp, origin memsim.Region, ocount int, odt datatype.Type, trank, tdisp, tcount int, tdt datatype.Type) error {
	if err := w.accessAllowed(trank); err != nil {
		return err
	}
	// As with Put: MPI-2 accumulates complete at the epoch-closing call.
	//rmalint:ignore lostrequest completion happens at the epoch-closing synchronization
	_, err := w.rma.eng.Accumulate(op, origin, ocount, odt, w.tms[trank], tdisp, tcount, tdt, trank, w.comm, core.AttrNone)
	return err
}

// overlapLedger is the overlap checker, installed as one of the engine's
// access recorders: it records stores into this rank's windows and counts
// concurrent stores from different origins to overlapping bytes within the
// same epoch. MPI-2 epochs, not the strawman's Complete, bound the ledger
// (reset at each Fence/Wait), so the retire calls are not its concern.
type overlapLedger struct{ *RMA }

func (overlapLedger) RetireOrigin(origin, target int) {}
func (overlapLedger) RetireTarget(target int)         {}

func (r overlapLedger) RecordAccess(a core.Access) {
	if a.Kind != core.AccessPut && a.Kind != core.AccessAcc {
		return
	}
	r.mu.Lock()
	var win *Win
	for _, w := range r.wins {
		if w.tms[w.comm.Rank()].Handle == a.Handle {
			win = w
			break
		}
	}
	r.mu.Unlock()
	if win == nil {
		return
	}
	win.overlapMu.Lock()
	defer win.overlapMu.Unlock()
	for _, rec := range win.writes {
		if rec.origin != a.Origin && a.Disp < rec.end && rec.start < a.Disp+a.Len {
			r.OverlapViolations.Inc()
		}
	}
	win.writes = append(win.writes, writeRecord{origin: a.Origin, start: a.Disp, end: a.Disp + a.Len})
}

// resetOverlapEpoch clears the overlap ledger at epoch boundaries.
func (w *Win) resetOverlapEpoch() {
	w.overlapMu.Lock()
	w.writes = w.writes[:0]
	w.overlapMu.Unlock()
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
