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
	"strconv"
	"sync"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/simnet"
)

// DefaultMemSize is the per-rank memory size when Config.MemSize is 0.
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
	// ReorderWindow is the unordered network's scramble window (0 =
	// default).
	ReorderWindow int
	// Seed seeds the network scrambler.
	Seed int64
	// Cost overrides the network cost model (zero value = default).
	Cost simnet.CostModel
	// SoftwareAcks disables hardware acknowledgement generation,
	// modelling networks that cannot report remote completion (E4).
	SoftwareAcks bool
	// MemSize is the per-rank memory size in bytes (0 = DefaultMemSize).
	MemSize int
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

// World is a set of ranks joined by a simulated network.
type World struct {
	cfg     Config
	net     *simnet.Network
	procs   []*Proc
	members *Membership
}

// NewWorld builds the network, memories, NICs and rank structures.
func NewWorld(cfg Config) *World {
	if cfg.Ranks <= 0 {
		panic("runtime: Config.Ranks must be positive")
	}
	if cfg.MemSize == 0 {
		cfg.MemSize = DefaultMemSize
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
	w.members = newMembership(net, cfg.Ranks, total)
	w.procs = make([]*Proc, total)
	for r := 0; r < total; r++ {
		coh := memsim.Coherent
		if cfg.Coherence != nil {
			coh = cfg.Coherence(r)
		}
		order := datatype.LittleEndian
		if cfg.ByteOrder != nil {
			order = cfg.ByteOrder(r)
		}
		mem := memsim.New(memsim.Config{Size: cfg.MemSize, Coherence: coh})
		nic := portals.NewNIC(net.Endpoint(r), mem, portals.Config{HardwareAcks: !cfg.SoftwareAcks})
		if cfg.Faults != nil || cfg.Retry != nil {
			var pol portals.RetryPolicy
			if cfg.Retry != nil {
				pol = *cfg.Retry
			}
			if pol.Seed == 0 && cfg.Faults != nil {
				pol.Seed = cfg.Faults.Seed
			}
			nic.EnableReliability(pol)
		}
		w.procs[r] = newProc(w, r, nic, mem, order)
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
// and waits for all of them. A panic in any rank is captured and returned immediately as
// an error naming the rank; the surviving rank goroutines are then leaked
// rather than deadlocking the caller (Run is intended for tests and
// benches, where the failure aborts the process anyway).
func (w *World) Run(fn func(p *Proc)) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(w.procs))
	for _, p := range w.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errCh <- fmt.Errorf("rank %d panicked: %v", p.rank, r)
				}
			}()
			// Label the rank goroutine so CPU/heap profiles attribute
			// samples to ranks (go tool pprof -tagfocus rank=N).
			pprof.Do(context.Background(), pprof.Labels("rank", strconv.Itoa(p.rank), "role", "rank"), func(context.Context) {
				fn(p)
			})
		}(p)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case err := <-errCh:
		return err
	case <-done:
		select {
		case err := <-errCh:
			return err
		default:
			return nil
		}
	}
}

// Close stops every rank's NIC, shuts down attached layer engines (their
// background goroutines), and tears the network down. Call it after all
// Run invocations are finished.
func (w *World) Close() {
	for _, p := range w.procs {
		p.nic.Stop()
	}
	for _, p := range w.procs {
		p.closeExts()
	}
	w.net.Close()
}
