// Package runtime provides the MPI-like process runtime the RMA layers run
// on: a World of ranks (goroutines with private simulated memories joined
// only by the simulated network), tagged point-to-point messaging,
// communicators, and the handful of collectives the paper's experiments
// need (barrier, broadcast, allreduce, gather).
//
// Each rank's address space is a memsim.Memory; rank user code receives a
// *Proc and may touch only its own memory. All inter-rank data motion goes
// through simnet messages, so one-sided semantics in the layers above are
// honest: there is no shared Go memory between ranks' user data.
package runtime

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/simnet"
)

// DefaultMemSize is the per-rank memory bound: the limit on a rank's
// offsets and allocations. It is not what a rank costs, since memsim backs
// only the bytes a rank has touched.
const DefaultMemSize = 16 << 20

// Config configures a World.
type Config struct {
	// Ranks is the number of compute processes.
	Ranks int
	// Spares is the number of extra standby processes kept outside the
	// world communicator. A spare idles until the membership service
	// binds it to a dead rank; the rebuild protocol then replays the
	// dead rank's replicated regions onto it (DESIGN.md §14).
	Spares int
	// Ordered selects whether the network preserves per-pair order
	// (default false in Go zero-value terms, so NewWorld flips the
	// default: pass UnorderedNet to get an unordered network).
	UnorderedNet bool
	// ReorderWindow is the unordered network's reorder window (0 =
	// default).
	ReorderWindow int
	// Seed seeds the unordered network's release draws.
	Seed int64
	// Cost overrides the network cost model (zero value = default).
	Cost simnet.CostModel
	// SoftwareAcks disables hardware acknowledgement generation,
	// modelling networks that cannot report remote completion (E4).
	SoftwareAcks bool
	// Coherence returns the memory coherence model for a rank; nil means
	// every rank is cache-coherent.
	Coherence func(rank int) memsim.Coherence
	// ByteOrder returns the byte order of a rank; nil means every rank is
	// little-endian. Mixed worlds model the hybrid systems of Section
	// III-B3.
	ByteOrder func(rank int) datatype.ByteOrder
	// Faults installs a deterministic fault-injection plan on the network
	// and enables the reliable-delivery relay on every NIC so protocol
	// layers keep their exactly-once view of the wire.
	Faults *simnet.FaultPlan
	// Retry overrides the relay's retry policy (zero fields = defaults).
	// Setting Retry without Faults also enables the relay, e.g. to pin
	// its overhead on a lossless wire.
	Retry *portals.RetryPolicy
}

// World is a set of ranks joined by a simulated network. It has no clock:
// retransmissions, unordered releases and failure pings wait until every
// rank is parked in the library (Proc.Park) or returned (see quiesce).
type World struct {
	cfg     Config
	net     *simnet.Network
	procs   []*Proc
	nics    []*portals.NIC
	members *Membership

	// running counts the ranks in Run with no goroutine parked (see
	// Proc.Park); live, the ranks whose function has not returned.
	running, live atomic.Int64
	// kick asks for a quiet step; stepMu admits one stepper at a time, and
	// spell (guarded by stepMu) counts its passes.
	kick   atomic.Bool
	stepMu sync.Mutex
	spell  uint64
}

// NewWorld builds the network, memories, NICs and rank structures.
func NewWorld(cfg Config) *World {
	if cfg.Ranks <= 0 {
		panic("runtime: Config.Ranks must be positive")
	}
	if cfg.Spares < 0 {
		panic("runtime: Config.Spares must not be negative")
	}
	total := cfg.Ranks + cfg.Spares
	net := simnet.New(simnet.Config{
		Ranks:         total,
		Ordered:       !cfg.UnorderedNet,
		ReorderWindow: cfg.ReorderWindow,
		Seed:          cfg.Seed,
		Cost:          cfg.Cost,
	})
	if cfg.Faults != nil {
		net.SetFaults(cfg.Faults)
	}
	w := &World{cfg: cfg, net: net}
	w.members = newMembership(w, cfg.Ranks, total)
	w.procs = make([]*Proc, total)
	w.nics = make([]*portals.NIC, total)
	for r := 0; r < total; r++ {
		coh := memsim.Coherent
		if cfg.Coherence != nil {
			coh = cfg.Coherence(r)
		}
		order := datatype.LittleEndian
		if cfg.ByteOrder != nil {
			order = cfg.ByteOrder(r)
		}
		mem := memsim.New(memsim.Config{Size: DefaultMemSize, Coherence: coh})
		w.nics[r] = portals.NewNIC(net.Endpoint(r), mem, portals.Config{HardwareAcks: !cfg.SoftwareAcks})
		w.procs[r] = newProc(w, r, w.nics[r], mem, order)
		if cfg.Faults != nil || cfg.Retry != nil {
			var pol portals.RetryPolicy
			if cfg.Retry != nil {
				pol = *cfg.Retry
			}
			w.nics[r].EnableReliability(pol)
		}
	}
	return w
}

// Net returns the underlying network (for counters in tests and benches).
func (w *World) Net() *simnet.Network { return w.net }

// Members returns the world's rank-liveness membership service.
func (w *World) Members() *Membership { return w.members }

// Size returns the number of compute ranks (spares excluded).
func (w *World) Size() int { return w.cfg.Ranks }

// TotalRanks returns the number of processes including spares.
func (w *World) TotalRanks() int { return len(w.procs) }

// Proc returns rank r's process structure. Intended for test setup;
// experiment code receives its own *Proc via Run.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// Run executes fn once per rank (spares included — branch on
// Proc.IsSpare for spare-specific behaviour), each on its own goroutine,
// and waits for all of them. A rank that returns releases what its
// unordered links hold and counts as idle; if the others are all parked,
// it steps the quiet world for them before it goes. A panic in any rank
// is captured and returned immediately as an error naming the rank; the
// surviving rank goroutines are then leaked rather than deadlocking the
// caller (Run is intended for tests and benches, where the failure aborts
// the process anyway).
func (w *World) Run(fn func(p *Proc)) error {
	results := make(chan error, len(w.procs))
	w.live.Add(int64(len(w.procs)))
	for _, p := range w.procs {
		p.unpark()
	}
	for _, p := range w.procs {
		go func() {
			var err error
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("rank %d panicked: %v", p.rank, r)
				}
				results <- err
			}()
			// Label the rank goroutine so CPU/heap profiles attribute
			// samples to ranks (go tool pprof -tagfocus rank=N).
			pprof.Do(context.Background(), pprof.Labels("rank", strconv.Itoa(p.rank), "role", "rank"), func(context.Context) {
				fn(p)
				p.nic.Endpoint().Flush()
				w.live.Add(-1)
				if p.idle() && w.live.Load() > 0 {
					w.quiesce(nil, 0)
				}
			})
		}()
	}
	for range w.procs {
		if err := <-results; err != nil {
			return err
		}
	}
	return nil
}

// quiesce is the discrete-event loop of the goroutine that made every
// rank idle: while no rank runs, some rank is parked and b (the bell the
// caller parks on, nil once its rank returned) has not rung after seen, it
// fires one pending event after another. One goroutine steps at a time; a
// rank idling meanwhile leaves it a kick, so no step is lost.
func (w *World) quiesce(b *Bell, seen uint64) {
	if !w.eventful() {
		return
	}
	w.kick.Store(true)
	for w.kick.Load() && w.stepMu.TryLock() {
		w.kick.Store(false)
		w.spell++
		for w.running.Load() == 0 && w.live.Load() > 0 && (b == nil || b.Rings() == seen) && w.step() {
		}
		w.stepMu.Unlock()
		if b != nil && b.Rings() != seen {
			return
		}
	}
}

// eventful reports whether a quiet world can have anything to fire: an
// unordered network, a reliable NIC or a quiet hook. Only an idle world
// asks, so a world with none of them pays nothing more on a park.
func (w *World) eventful() bool {
	return w.cfg.UnorderedNet || slices.ContainsFunc(w.procs, func(p *Proc) bool {
		return p.nic.Reliable() || p.quiet.Load() != nil
	})
}

// step fires one pending event and reports whether there was one: what
// an unordered link holds or the relay's earliest deadline (portals.Fire),
// else, with no frame in flight anywhere, a quiet hook in rank order.
// Caller holds stepMu.
func (w *World) step() bool {
	fired, inflight := portals.Fire(w.nics)
	if fired || inflight {
		return fired
	}
	for _, p := range w.procs {
		if h := p.quiet.Load(); h != nil && (*h)(w.spell) {
			return true
		}
	}
	return false
}

// Close stops every rank's NIC and tears the network down. Call it after
// all Run invocations are finished.
func (w *World) Close() {
	for _, p := range w.procs {
		p.nic.Stop()
	}
	w.net.Close()
}
