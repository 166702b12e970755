package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// Complete blocks until every operation previously issued by this rank to
// the given ranks of comm has been applied at the target — the paper's
// MPI_RMA_complete. Call it with no rank arguments (or AllRanks) to cover
// every rank of comm. It is the strong synchronization operation:
// afterwards, remote completion of all covered operations is guaranteed,
// whether or not they set AttrRemoteComplete.
//
// Pending issue rings are flushed first, then completion is established
// per target, cheapest mechanism first:
//
//  1. Nothing outstanding (no operations issued, or the target's delivery
//     counters already confirm everything) — return immediately, no
//     traffic at all.
//  2. Every outstanding operation reports a delivery counter (it was
//     batched, notified, remote-complete, or reply-bearing) — wait locally
//     for the counters to catch up; still no traffic.
//  3. Otherwise fall back to the probe round-trip: one completion probe
//     per target carrying the count of operations issued to it; the target
//     replies once its applied count reaches that threshold.
//
// Cases 1 and 2 are counted in FastPaths. Operations that report no counter
// (plain non-blocking puts) always take path 3.
func (e *Engine) Complete(comm *runtime.Comm, tranks ...int) error {
	e.Progress()
	e.CompleteCalls.Inc()
	start := e.proc.Now()
	var buf [8]int
	targets, err := e.resolveTargets(comm, tranks, buf[:0])
	if err != nil {
		return err
	}
	var pbuf [8]*Request
	probes := pbuf[:0] // the targets the counters cannot answer for
	for _, world := range targets {
		e.cover(world)
		e.mu.Lock()
		f := e.stickyLocked(world)
		ts := &e.targets[world]
		sent, will := ts.sent, ts.willConfirm
		e.mu.Unlock()
		if err = f.err; err != nil {
			// A dead target (ErrRankFailed) or failed link (ErrLinkFailed)
			// can never confirm; report it instead of probing a black hole.
			break
		}
		e.flushTarget(world) // ring members count in sent already
		if sent == 0 {
			continue
		}
		at, probe, cerr := e.confirm(world, sent, will)
		if err = cerr; err != nil {
			break
		}
		if probe == nil {
			e.FastPaths.Inc()
			e.emit(trace.KindComplete, at, world, 0, sent, will)
			continue
		}
		e.ProbeFallbacks.Inc()
		e.emit(trace.KindComplete, e.proc.Now(), world, probe.id, sent, will)
		probes = append(probes, probe)
	}
	// Await every probe sent, freeing its slot; a failed one fails completion.
	for _, r := range probes {
		if _, perr := e.await(r); err == nil {
			err = perr
		}
	}
	if err != nil {
		return fmt.Errorf("core: complete: %w", err)
	}
	// Every covered op is now applied at its target: later ops get a
	// fresh epoch.
	e.advanceEpochs(targets)
	if lat := e.observers().lat; lat != nil {
		lat[latComplete].Observe(int64(e.proc.Now() - start))
	}
	return nil
}

// CompleteCollective is the collective form (MPI_RMA_complete_collective):
// every member of comm calls it; on return, every operation issued by any
// member to any member has been applied.
//
// This is where the paper's "additional implementation optimizations with
// prior knowledge of the participation of remote processes" materialize:
// instead of every rank probing every target (O(n²) round trips, what
// Complete(AllRanks) must do without that knowledge), the members
// exchange their per-target issue counts in one collective, each rank
// waits *locally* until it has applied everything addressed to it, and a
// barrier publishes global completion — O(n log n) messages total.
func (e *Engine) CompleteCollective(comm *runtime.Comm) error {
	e.Progress()
	e.CompleteCalls.Inc()
	e.Flush()
	n := comm.Size()
	me := comm.Rank()
	members := comm.Ranks()

	// Exchange the sent-counts matrix: row r = how many ops member r has
	// issued to each member.
	mine := make([]byte, 8*n)
	e.mu.Lock()
	for j, world := range members {
		e.cover(world)
		binary.LittleEndian.PutUint64(mine[8*j:], uint64(e.targets[world].sent))
	}
	e.mu.Unlock()
	rows := comm.Gather(0, mine)
	var flat []byte
	if me == 0 {
		for _, row := range rows {
			flat = append(flat, row...)
		}
	}
	flat = comm.Bcast(0, flat)
	if len(flat) != 8*n*n {
		return fmt.Errorf("core: collective completion exchanged %d bytes, want %d: %w", len(flat), 8*n*n, ErrEpoch)
	}

	// Wait locally for everything addressed to us — column `me` of the
	// matrix — member by member (the last wait's stamp is the latest
	// application of all), then barrier so every member's wait has
	// finished before anyone proceeds.
	for r, world := range members {
		inbound := int64(binary.LittleEndian.Uint64(flat[8*(r*n+me):]))
		_, ev := e.wait([]SelectCase{{kind: selInbound, rank: world, threshold: inbound}})
		if ev.Err != nil {
			return fmt.Errorf("core: collective completion: %w", ev.Err)
		}
		e.proc.NIC().CPU().AdvanceTo(ev.At)
	}
	// Everything addressed to this rank has been applied and recorded, and
	// no member can issue again until the barrier releases it — retire the
	// whole target-side window before publishing completion.
	for _, r := range e.observers().recorders {
		r.RetireTarget(e.proc.Rank())
	}
	e.advanceEpochs(members)
	comm.Barrier()
	return nil
}

// Order guarantees that every operation issued to the given ranks of comm
// (none given, or AllRanks, = every rank) before the call is applied
// before any operation issued after it — the paper's MPI_RMA_order, the
// shmem_fence-style weak synchronization. On a network that preserves
// ordering it costs nothing beyond flushing pending issue rings (Figure
// 2's overlapping lines); otherwise the next operation to each covered
// target first stalls until the target confirms the earlier operations,
// the "slight penalty" of Section III-B.
func (e *Engine) Order(comm *runtime.Comm, tranks ...int) error {
	e.Progress()
	var buf [8]int
	targets, err := e.resolveTargets(comm, tranks, buf[:0])
	if err != nil {
		return err
	}
	// An aggregate keeps its members' issue order at the target, but ops
	// issued after the Order must not join a pre-Order aggregate.
	for _, world := range targets {
		if err := e.stickyFor(world); err != nil {
			// A fence toward a dead rank or failed link can never be
			// confirmed; surface the sticky error like Complete does
			// instead of arming a fence that would only fail later.
			return fmt.Errorf("core: order: %w", err)
		}
		e.flushTarget(world)
	}
	// Operations issued after the Order are synchronization-separated from
	// those before it; give them a fresh checker epoch.
	e.advanceEpochs(targets)
	if e.proc.NIC().Endpoint().Ordered() {
		return nil // the network orders per-pair traffic already
	}
	e.mu.Lock()
	for _, world := range targets {
		ts := &e.targets[world]
		if ts.sent > 0 {
			ts.fencePending = true
		}
	}
	e.mu.Unlock()
	return nil
}

// OrderCollective is the collective form of Order.
func (e *Engine) OrderCollective(comm *runtime.Comm) error {
	if err := e.Order(comm, AllRanks); err != nil {
		return err
	}
	comm.Barrier()
	return nil
}

// resolveTargets expands a variadic target list into world ranks, appended
// to dst: an empty list or any AllRanks entry covers the whole communicator;
// explicit ranks are validated, mapped (spare ranks by world rank, as
// worldRank does for transfers), and deduplicated preserving call order.
// The duplicate check is a linear scan so that a caller passing a stack
// buffer as dst completes without a heap allocation.
func (e *Engine) resolveTargets(comm *runtime.Comm, tranks, dst []int) ([]int, error) {
	if len(tranks) == 0 {
		return comm.Ranks(), nil
	}
	for _, trank := range tranks {
		if trank == AllRanks {
			return comm.Ranks(), nil
		}
		world, err := e.worldRank(trank, comm)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(dst, world) {
			dst = append(dst, world)
		}
	}
	return dst, nil
}

// ask sends world a control frame of kind (hHandle = arg) under a request
// of the engine's own, which the answer completes and the caller awaits.
// The frame is reclaimed once its send stamp is read.
func (e *Engine) ask(world int, kind uint8, arg uint64) (*Request, error) {
	e.mu.Lock()
	req, _ := e.newRequest(world, true, true)
	e.mu.Unlock()
	m := e.newMsg(world, kind, 0)
	m.Hdr[hHandle] = arg
	m.Hdr[hReq] = req.id
	_, err := e.proc.NIC().Send(e.proc.Now(), &m.Message)
	sent := m.SentAt
	e.reclaim(m)
	if err != nil {
		e.settle(req.id, e.proc.Now(), err)
		e.await(req)
		return nil, err
	}
	e.proc.NIC().CPU().AdvanceTo(sent)
	return req, nil
}

// fence enforces a pending Order() before the next operation to world,
// which issue has found and cleared: the issue stalls until the target
// confirms application of all earlier operations, using the same counter
// fast paths as Complete. Called from the issue path with no locks held.
func (e *Engine) fence(world int) error {
	e.mu.Lock()
	f := e.stickyLocked(world)
	ts := &e.targets[world]
	sent, will := ts.sent, ts.willConfirm
	e.mu.Unlock()
	if f.err != nil {
		return fmt.Errorf("core: fence: %w", f.err)
	}
	e.flushTarget(world) // ring members count in sent already
	if sent == 0 {
		return nil
	}
	e.FenceStalls.Inc()
	e.emit(trace.KindFence, e.proc.Now(), world, 0, sent, will)
	_, probe, err := e.confirm(world, sent, will)
	if err == nil && probe != nil {
		_, err = e.await(probe)
	}
	if err != nil {
		return fmt.Errorf("core: fence: %w", err)
	}
	return nil
}

// confirm is the ladder Complete and the Order fence share (Complete's
// documentation walks its three steps): establish that world has applied
// the first sent operations of this rank. A nil request means the counters
// answered — the virtual clock has been advanced to the confirming report's
// time, which is returned; otherwise the caller awaits the probe.
func (e *Engine) confirm(world int, sent, will int64) (vtime.Time, *Request, error) {
	rc := SelectCase{kind: selConfirmed, rank: world, threshold: sent}
	ev, ok := e.tryCase(&rc)
	if !ok && will >= sent {
		_, ev = e.wait([]SelectCase{rc})
		ok = true
	}
	if ok {
		e.proc.NIC().CPU().AdvanceTo(ev.At)
		return ev.At, nil, ev.Err
	}
	probe, err := e.ask(world, kProbe, uint64(sent))
	return 0, probe, err
}
