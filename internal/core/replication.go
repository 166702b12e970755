package core

import (
	"fmt"
	"slices"

	"mpi3rma/internal/lockrank"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// Buddy replication and rebuild (DESIGN.md §14).
//
// With replication enabled, every region a rank exposes is mirrored
// in-band to its buddy — rank (r+1) mod n over the compute ranks — so a
// single rank death loses nothing: the buddy holds a byte-exact replica
// and replays it onto a spare.
//
// The protocol is deliberately minimal:
//
//   - Expose sends kReplExpose (handle, size) plus an initial full
//     snapshot, so a region exposed with prior contents starts mirrored.
//   - Every mutating apply (put, accumulate, RMW, batch member) snapshots
//     the bytes it touched and ships them as kReplUpdate stamped with a
//     per-handle version drawn under the replication mutex. Snapshots are
//     taken after the deposit, and version order equals snapshot order,
//     so the highest version covering a byte always carries that byte's
//     final value: the buddy applies updates in contiguous version order
//     and converges without any extra barrier.
//   - The operation's completion bookkeeping — finishApply with its ack
//     or notification, an RMW's value reply, a batch member's counter
//     bump — is DEFERRED until the buddy's cumulative kReplAck covers the
//     update's version. Completion therefore implies replica durability:
//     any operation an origin saw complete survives the primary's death.
//
// When the membership service confirms a death, the dead rank's buddy
// promotes: it binds a spare, replays each replica as one kRebuild frame,
// and finishes with kRebuildDone carrying the frame count (the frames may
// arrive in any order). The spare exposes each region at the dead rank's
// original handle, seeds its own version counters from the replayed
// versions, and — once every frame has landed — reports RebuildComplete
// and starts replicating back to the promoter, which already holds the
// replica at exactly the right version: continued protection costs zero
// extra transfer. A rank whose buddy died flushes its deferred
// completions (no replica can be confirmed while the buddy is down),
// degrades to direct completion, and re-syncs a full snapshot to the
// spare once the rebuild finishes.
//
// Metadata is O(1) per rank per exposure: a version counter and a byte
// buffer on the buddy — no per-operation log survives the ack.

// replKey names one replica held on behalf of another rank.
type replKey struct {
	owner  int
	handle uint64
}

// replUpd is one out-of-order update held until its predecessors arrive.
type replUpd struct {
	disp int
	data []byte
}

// replica is the buddy-side mirror of one exposed region.
type replica struct {
	size int
	buf  []byte
	next uint64 // next version to apply (versions start at 1)
	held map[uint64]replUpd
}

// apply lands one update, growing the buffer for updates that outrun the
// kReplExpose announcement on an unordered wire.
func (r *replica) apply(disp int, data []byte) {
	if disp < 0 {
		return
	}
	if need := disp + len(data); need > len(r.buf) {
		r.buf = append(r.buf, make([]byte, need-len(r.buf))...)
	}
	copy(r.buf[disp:], data)
}

// deferredFin is one operation's completion bookkeeping awaiting the
// buddy's acknowledgement of the update that carries its bytes.
type deferredFin struct {
	version uint64
	end     vtime.Time
	op      *applyOp
}

// replState is one engine's replication bookkeeping: primary-side version
// counters and deferred completions for its own exposures, buddy-side
// replicas it holds for its ward, and spare-side rebuild progress. fins
// are never run with mu held (they take the engine's completion locks).
type replState struct {
	mu      lockrank.Mutex
	enabled bool
	buddy   int  // rank mirroring this rank's exposures (-1 = none yet)
	down    bool // buddy confirmed dead, successor not yet rebuilt

	// Primary side, keyed by this rank's exposure handle.
	sizes    map[uint64]int
	version  map[uint64]uint64
	acked    map[uint64]uint64
	deferred map[uint64][]deferredFin // version-ordered

	// Buddy side.
	replicas map[replKey]*replica

	// Spare side: rebuild frames received / expected per dead rank
	// (expected is set by kRebuildDone, which may arrive first).
	rebuildGot  map[int]int
	rebuildNeed map[int]int

	// pinged counts the failure pings sent to each peer in quiet spell
	// pingSpell; only the world's quiet step touches them.
	pinged    map[int]int
	pingSpell uint64
}

func (st *replState) init() {
	st.mu.Rank = lockrank.Replica
	st.buddy = -1
	st.sizes = make(map[uint64]int)
	st.version = make(map[uint64]uint64)
	st.acked = make(map[uint64]uint64)
	st.deferred = make(map[uint64][]deferredFin)
	st.replicas = make(map[replKey]*replica)
	st.rebuildGot = make(map[int]int)
	st.rebuildNeed = make(map[int]int)
	st.pinged = make(map[int]int)
}

// replicaLocked returns (creating if needed) the replica for key. Caller
// holds st.mu.
func (st *replState) replicaLocked(key replKey) *replica {
	r := st.replicas[key]
	if r == nil {
		r = &replica{next: 1, held: make(map[uint64]replUpd)}
		st.replicas[key] = r
	}
	return r
}

// EnableReplication turns on buddy replication for regions this rank
// exposes from now on: each is mirrored to rank (me+1) mod n and every
// mutating operation completes only once the buddy acknowledged its
// bytes. Enable it on every compute rank (it is SPMD, like the rest of
// the engine) and before exposing the regions that need protection. On a
// spare it arms the state only; the buddy binding arrives with the
// rebuild. Replication is a property of the engine for its lifetime —
// there is no disable.
func (e *Engine) EnableReplication() error {
	n := e.proc.Size()
	if n < 2 {
		return fmt.Errorf("core: replication requires at least 2 compute ranks, have %d", n)
	}
	st := &e.repl
	st.mu.Lock()
	st.enabled = true
	if !e.proc.IsSpare() {
		st.buddy = (e.proc.Rank() + 1) % n
	}
	st.mu.Unlock()
	e.proc.OnQuiet(e.pingStalled)
	return nil
}

// Buddy returns the rank currently mirroring this rank's exposures, or
// -1 when replication is off or the buddy is down awaiting a rebuild.
func (e *Engine) Buddy() (int, bool) {
	st := &e.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.enabled || st.down || st.buddy < 0 {
		return -1, false
	}
	return st.buddy, true
}

// replOnExpose mirrors a new exposure to the buddy: the announcement and
// an initial full snapshot (version 1), so regions exposed with prior
// contents start protected. It reports whether the exposure is tracked —
// replicated — which Expose publishes with it. Called by Expose before the
// handle is published, without the engine mutex held.
func (e *Engine) replOnExpose(h uint64, region memsim.Region) bool {
	st := &e.repl
	st.mu.Lock()
	if !st.enabled {
		st.mu.Unlock()
		return false
	}
	st.sizes[h] = region.Size
	buddy := st.buddy
	if buddy < 0 || st.down {
		// Tracked for the post-rebuild resync, but nothing to send now.
		st.mu.Unlock()
		return true
	}
	m := e.replUpdate(buddy, h, 0, region.Size)
	if err := e.proc.Mem().RemoteRead(region.Offset, m.Payload); err != nil {
		st.mu.Unlock()
		return true
	}
	st.version[h]++
	m.Hdr[hCount] = st.version[h]
	st.mu.Unlock()
	e.replSendExpose(buddy, h, region.Size)
	e.replSend(m, e.proc.Now())
	return true
}

// replSendExpose ships one kReplExpose announcement.
func (e *Engine) replSendExpose(buddy int, h uint64, size int) {
	m := e.newMsg(buddy, kReplExpose, 0)
	m.Hdr[hHandle] = h
	m.Hdr[hCount] = uint64(size)
	e.sendReply(e.proc.Now(), m)
}

// replUpdate builds the frame of one snapshot of length bytes at disp of
// exposure h, for the caller to read the region into, stamp with the
// version it draws (hCount) and hand to replSend.
func (e *Engine) replUpdate(buddy int, h uint64, disp, length int) *frame {
	m := e.newMsg(buddy, kReplUpdate, length)
	m.Hdr[hHandle] = h
	m.Hdr[hDisp] = uint64(disp)
	return m
}

// replSend ships one versioned snapshot.
func (e *Engine) replSend(m *frame, at vtime.Time) {
	e.ReplUpdates.Inc()
	e.sendReply(at, m)
}

// replicate is the deferral point of every mutating apply: r.fin is the
// operation's completion bookkeeping (finishApply plus any reply). For an
// unreplicated exposure — replication off, buddy down, or a handle
// exposed before EnableReplication — fin runs immediately and the apply
// keeps its pre-replication semantics; an untracked exposure says so
// itself, with no lock taken. Otherwise the freshly deposited bytes are
// snapshotted under the replication mutex (so version order equals
// snapshot order), shipped to the buddy, and fin runs only when the
// buddy's cumulative acknowledgement covers the drawn version.
func (e *Engine) replicate(r *applyOp, disp, length int, end vtime.Time) {
	if !r.exp.tracked {
		r.fin(end)
		return
	}
	st := &e.repl
	h := r.handle
	st.mu.Lock()
	// A rejected deposit (or one clipped to nothing) mutated nothing.
	if !st.enabled || st.down || st.buddy < 0 ||
		disp < 0 || length <= 0 || disp+length > r.exp.region.Size {
		st.mu.Unlock()
		r.fin(end)
		return
	}
	m := e.replUpdate(st.buddy, h, disp, length)
	if err := e.proc.Mem().RemoteRead(r.exp.region.Offset+disp, m.Payload); err != nil {
		st.mu.Unlock()
		r.fin(end)
		return
	}
	st.version[h]++
	m.Hdr[hCount] = st.version[h]
	st.deferred[h] = append(st.deferred[h], deferredFin{version: st.version[h], end: end, op: r})
	st.mu.Unlock()
	e.replSend(m, end)
}

// handleReplExpose creates (or sizes) the replica for a ward's exposure.
func (e *Engine) handleReplExpose(m *simnet.Message, at vtime.Time) {
	st := &e.repl
	st.mu.Lock()
	r := st.replicaLocked(replKey{owner: m.Src, handle: m.Hdr[hHandle]})
	if size := int(m.Hdr[hCount]); size > r.size {
		r.size = size
		if size > len(r.buf) {
			r.buf = append(r.buf, make([]byte, size-len(r.buf))...)
		}
	}
	st.mu.Unlock()
}

// handleReplUpdate lands one versioned snapshot on the replica, applying
// in contiguous version order (out-of-order arrivals are held), and
// answers with the cumulative replicated version.
func (e *Engine) handleReplUpdate(m *simnet.Message, at vtime.Time) {
	st := &e.repl
	key := replKey{owner: m.Src, handle: m.Hdr[hHandle]}
	v := m.Hdr[hCount]
	disp := int(m.Hdr[hDisp])
	st.mu.Lock()
	r := st.replicaLocked(key)
	if v == r.next {
		r.apply(disp, m.Payload)
		r.next++
		for {
			u, ok := r.held[r.next]
			if !ok {
				break
			}
			delete(r.held, r.next)
			r.apply(u.disp, u.data)
			r.next++
		}
	} else if v > r.next {
		r.held[v] = replUpd{disp: disp, data: append([]byte(nil), m.Payload...)}
	}
	ackv := r.next - 1
	st.mu.Unlock()
	ack := e.newMsg(m.Src, kReplAck, 0)
	ack.Hdr[hHandle] = m.Hdr[hHandle]
	ack.Hdr[hCount] = ackv
	e.ReplAcks.Inc()
	e.sendReply(at, ack)
}

// handleReplAck releases the deferred completions of every update the
// buddy's cumulative acknowledgement now covers, in version order.
func (e *Engine) handleReplAck(m *simnet.Message, at vtime.Time) {
	st := &e.repl
	h := m.Hdr[hHandle]
	v := m.Hdr[hCount]
	st.mu.Lock()
	if v > st.acked[h] {
		st.acked[h] = v
	}
	limit := st.acked[h]
	q := st.deferred[h]
	n := 0
	for n < len(q) && q[n].version <= limit {
		n++
	}
	ready := q[:n:n]
	st.deferred[h] = q[n:]
	st.mu.Unlock()
	for _, d := range ready {
		d.op.fin(vtime.Later(d.end, at))
	}
}

// replOnRankDead is the replication layer's reaction to a confirmed
// death, run by handleFailure before the flight recorder snapshots its
// postmortem (so the dump already names the promotion). Two independent
// roles may apply to this engine:
//
//   - Promoter: this rank is the dead rank's buddy (its ring successor),
//     or holds replicas the dead rank owned. It binds a spare and replays
//     every replica onto it. The buddy promotes even when it holds
//     nothing — the dead rank's kReplExpose may never have landed — so the
//     rebuild always finishes, with whatever survived: survivors parked in
//     AwaitRebuilt are released, and the regions that were lost answer
//     ErrBadHandle at the successor instead of wedging the world.
//   - Orphan: the dead rank was this rank's buddy. Deferred completions
//     can never be acknowledged; they are flushed (run immediately) and
//     replication degrades until the spare finishes rebuilding, then a
//     full resync re-arms it.
func (e *Engine) replOnRankDead(dead int, at vtime.Time) {
	st := &e.repl
	st.mu.Lock()
	var mine []replKey
	for key := range st.replicas {
		if key.owner == dead {
			mine = append(mine, key)
		}
	}
	orphaned := st.enabled && !st.down && st.buddy == dead
	n := e.proc.Size()
	ward := st.enabled && !e.proc.IsSpare() && dead < n && (dead+1)%n == e.proc.Rank()
	var flushed []deferredFin
	if orphaned {
		st.down = true
		for h, q := range st.deferred {
			flushed = append(flushed, q...)
			delete(st.deferred, h)
		}
	}
	st.mu.Unlock()

	// Flush first: completion must not wait on a dead buddy.
	for _, d := range flushed {
		d.op.fin(vtime.Later(d.end, at))
	}
	if orphaned {
		e.emit(trace.KindBuddyLost, at, dead, 0, int64(len(flushed)), 0)
		e.proc.World().Members().OnRebuilt(dead, e.replRebind)
	}
	if ward || len(mine) > 0 {
		e.replPromote(dead, mine, at)
	}
}

// replPromote replays the dead rank's replicas onto a freshly bound
// spare: one kRebuild frame per replica, then kRebuildDone carrying the
// frame count (the wire may reorder them; the spare counts). The replicas
// are rekeyed to the spare, which resumes replicating to this rank at
// exactly the version the replica already holds — continued protection
// with zero extra transfer. The promotion is recorded in the flight
// recorder's rank-death report before handleFailure dumps the postmortem.
func (e *Engine) replPromote(dead int, mine []replKey, at vtime.Time) {
	members := e.proc.World().Members()
	spare, ok := members.AllocSpare(dead)
	if !ok {
		e.emit(trace.KindNoSpare, at, dead, 0, int64(len(mine)), 0)
		return
	}
	st := &e.repl
	var maxV uint64
	var frames []*frame
	st.mu.Lock()
	for _, key := range mine {
		r := st.replicas[key]
		if r == nil {
			continue
		}
		delete(st.replicas, key)
		st.replicas[replKey{owner: spare, handle: key.handle}] = r
		if r.size > len(r.buf) {
			r.buf = append(r.buf, make([]byte, r.size-len(r.buf))...)
		}
		if r.next-1 > maxV {
			maxV = r.next - 1
		}
		m := e.newMsg(spare, kRebuild, len(r.buf))
		m.Hdr[hHandle] = key.handle
		m.Hdr[hCount] = r.next - 1
		m.Hdr[hDisp] = uint64(dead)
		copy(m.Payload, r.buf)
		frames = append(frames, m)
	}
	st.mu.Unlock()
	// Sent after unlocking: a send may run the spare's handlers here.
	for _, m := range frames {
		e.Rebuilds.Inc()
		e.sendReply(e.proc.Now(), m)
	}
	done := e.newMsg(spare, kRebuildDone, 0)
	done.Hdr[hHandle] = uint64(len(mine))
	done.Hdr[hDisp] = uint64(dead)
	e.sendReply(e.proc.Now(), done)
	e.emit(trace.KindReplicaPromote, at, dead, uint64(spare), int64(len(mine)), 0)
	e.FlightRecorder().SetRankDeath(telemetry.RankDeathInfo{
		Dead:        dead,
		Buddy:       e.proc.Rank(),
		Spare:       spare,
		Regions:     len(mine),
		FromVersion: 1,
		ToVersion:   maxV,
	})
}

// replRebind runs once the spare has rebuilt this rank's dead buddy
// (Membership.OnRebuilt): it re-arms replication toward the spare with a
// full resync (announcement plus full snapshot per tracked handle, each
// drawing the next version). Operations applied while the buddy was down
// completed unreplicated; the full snapshot, taken after their deposits,
// covers every one of them.
func (e *Engine) replRebind(spare int) {
	st := &e.repl
	st.mu.Lock()
	st.buddy = spare
	st.down = false
	// The successor's replicas of this rank start fresh (contiguous
	// version order from 1), so the update stream must restart with them:
	// carrying the old counters forward would make the spare park the
	// first post-rebind update as a far-future out-of-order arrival and
	// acknowledge nothing, wedging every deferred completion behind it.
	// Reset under the same critical section that re-arms the buddy, so no
	// concurrent apply can draw a pre-reset version toward the spare.
	for h := range st.version {
		delete(st.version, h)
	}
	for h := range st.acked {
		delete(st.acked, h)
	}
	handles := make(map[uint64]int, len(st.sizes))
	for h, sz := range st.sizes {
		handles[h] = sz
	}
	st.mu.Unlock()
	for h, sz := range handles {
		exp := e.lookupExposure(h)
		if exp == nil {
			continue
		}
		e.replSendExpose(spare, h, sz)
		st.mu.Lock()
		m := e.replUpdate(spare, h, 0, sz)
		if err := e.proc.Mem().RemoteRead(exp.region.Offset, m.Payload); err != nil {
			st.mu.Unlock()
			continue
		}
		st.version[h]++
		m.Hdr[hCount] = st.version[h]
		st.mu.Unlock()
		e.replSend(m, e.proc.Now())
	}
	e.emit(trace.KindBuddyRebound, e.proc.Now(), spare, 0, int64(len(handles)), 0)
}

// handleRebuild lands one replayed region on a spare: the region is
// exposed at the dead rank's original handle (so origins can re-target
// the successor with an unchanged descriptor), the replica bytes are
// deposited, and the spare's own version counter resumes from the
// replayed version — its future updates continue the stream the promoter
// already holds.
func (e *Engine) handleRebuild(m *simnet.Message, at vtime.Time) {
	dead := int(int64(m.Hdr[hDisp]))
	h := m.Hdr[hHandle]
	v := m.Hdr[hCount]
	region := e.exposeAt(h, len(m.Payload))
	if err := e.proc.Mem().RemoteWrite(region.Offset, m.Payload); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
	st := &e.repl
	st.mu.Lock()
	st.enabled = true
	st.sizes[h] = len(m.Payload)
	st.version[h] = v
	st.acked[h] = v
	st.rebuildGot[dead]++
	fin := st.rebuildNeed[dead] > 0 && st.rebuildGot[dead] >= st.rebuildNeed[dead]
	st.mu.Unlock()
	e.emit(trace.KindRebuildFrame, at, dead, h, int64(len(m.Payload)), 0)
	if fin {
		e.finishRebuild(dead, m.Src, at)
	}
}

// handleRebuildDone records how many frames the replay comprises and, if
// they all already landed (the wire may reorder), finishes the rebuild.
func (e *Engine) handleRebuildDone(m *simnet.Message, at vtime.Time) {
	dead := int(int64(m.Hdr[hDisp]))
	need := int(m.Hdr[hHandle])
	st := &e.repl
	st.mu.Lock()
	st.rebuildNeed[dead] = need
	fin := st.rebuildGot[dead] >= need
	st.mu.Unlock()
	if fin {
		e.finishRebuild(dead, m.Src, at)
	}
}

// finishRebuild arms the spare as a full replica-protected primary —
// its buddy is the promoter, which holds every replayed region at
// exactly the replayed version — and reports RebuildComplete so waiting
// ranks (AwaitRebuilt) learn the successor is serving.
func (e *Engine) finishRebuild(dead, promoter int, at vtime.Time) {
	st := &e.repl
	st.mu.Lock()
	st.enabled = true
	st.buddy = promoter
	st.down = false
	delete(st.rebuildGot, dead)
	delete(st.rebuildNeed, dead)
	st.mu.Unlock()
	e.proc.World().Members().RebuildComplete(dead, e.proc.Rank())
	e.emit(trace.KindRebuildDone, at, dead, uint64(promoter), 0, 0)
}

// Failure pings (the failure detector's second trigger).
//
// The reliable-delivery relay retransmits frames until the receiving NIC
// acknowledges them, so toward a LIVE peer every engine-level reply —
// a kReplAck, a probe answer, a get reply — is eventually delivered and
// the only failure signal needed is the relay's retry-budget exhaustion.
// A dying peer breaks that reasoning: it can relay-ack a frame (the NIC
// admitted the bytes) and then be blackholed before the engine-level
// reply goes out. The sender is now waiting on an acknowledgement that
// will never come while owing the relay nothing — no frame in flight, no
// retransmission, no budget exhaustion, no detection. Both ends of the
// replication protocol can wedge this way: an orphan whose deferred
// completions await a dead buddy's kReplAck, and an origin whose
// completion probe was parked at a target that died before its deferred
// applies were acknowledged.
//
// The quiet world closes the loop: when every rank is blocked and no frame
// is in flight, nothing moves again unless someone speaks, so each
// replicating engine pings the peers it waits on. The kPing is bait: a
// live peer's NIC relay-acks it; a dead peer blackholes it, the relay
// exhausts its budget in the quiet steps that follow, and the ordinary
// detection path — onLinkFailed, membership Suspect against RAS ground
// truth, onRankDead's failure frame — fails the stalled work with
// ErrRankFailed.

// pingStalled is the engine's quiet hook (runtime.Proc.OnQuiet): it pings
// each peer this engine waits on, at most RetryPolicy.Budget times — the
// relay's own patience — per quiet spell, so a genuine deadlock leaves the
// world quiet, and reports whether it sent any. Without the relay it is
// silent: detection is impossible there.
func (e *Engine) pingStalled(spell uint64) bool {
	st, nic := &e.repl, e.proc.NIC()
	if spell != st.pingSpell {
		clear(st.pinged)
		st.pingSpell = spell
	}
	sent := false
	for _, peer := range e.awaitedPeers() {
		k := st.pinged[peer] + 1
		if peer == e.proc.Rank() || k > nic.RetryBudget() || e.stickyFor(peer) != nil {
			continue
		}
		st.pinged[peer] = k
		e.Pings.Inc()
		// This rank's clock stands where its last send left it, so a ping
		// stamped Now() can never meet a peer that dies after that instant:
		// in virtual time it arrives before the death, every time. The k-th
		// ping of a spell is stamped as the relay would stamp a k-th
		// retransmission — virtual patience for the quiet steps that passed
		// with no progress.
		at := e.proc.Now() + vtime.Time(nic.RetryPatience(k))
		e.emit(trace.KindSentinelPing, at, peer, 0, int64(k), 0)
		e.sendReplyNIC(at, e.newMsg(peer, kPing, 0))
		sent = true
	}
	return sent
}

// awaitedPeers lists, in rank order, the peers of every counter waiter
// (Engine.waits) and outstanding request, and the buddy while replication
// deferrals are unacknowledged.
func (e *Engine) awaitedPeers() []int {
	var peers []int
	st := &e.repl
	st.mu.Lock()
	if st.enabled && !st.down && st.buddy >= 0 {
		for _, q := range st.deferred {
			if len(q) > 0 {
				peers = append(peers, st.buddy)
				break
			}
		}
	}
	st.mu.Unlock()
	e.mu.Lock()
	for _, s := range e.slab {
		if s.req != nil {
			peers = append(peers, s.req.target)
		}
	}
	e.mu.Unlock()
	for _, w := range e.waits() {
		peers = append(peers, w.Peer)
	}
	slices.Sort(peers)
	return slices.Compact(peers)
}

// handlePing is the liveness probe's target side: the frame's admission
// (and the relay acknowledgement it triggered) already answered the
// question, so there is deliberately nothing to do.
func (e *Engine) handlePing(m *simnet.Message, at vtime.Time) {}

// exposeAt installs an exposure under a fixed handle — the spare-side
// counterpart of Expose, which lets a rebuilt region keep the dead rank's
// handle so existing TargetMem descriptors stay valid with only the Owner
// re-pointed. Idempotent per handle; the sequence counter is advanced
// past the handle so later local Expose calls cannot collide with it.
func (e *Engine) exposeAt(h uint64, size int) memsim.Region {
	if ex := e.lookupExposure(h); ex != nil {
		return ex.region
	}
	region := e.proc.Alloc(size)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ex := e.lookupExposure(h); ex != nil {
		return ex.region
	}
	e.exps.set(h, &exposure{region: region, tracked: true}, false)
	if h > e.tmemSeq {
		e.tmemSeq = h
	}
	return region
}
