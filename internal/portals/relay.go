package portals

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"time"

	"mpi3rma/internal/lockrank"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// Reliable delivery. simnet's FaultPlan can drop, duplicate, delay and
// corrupt wire messages; this relay restores the exactly-once, per-link
// FIFO view the protocol layers above were built on. The design follows
// the classic NIC-firmware reliability engines (SeaStar, Quadrics Elan):
//
//   - The origin stamps every tracked frame with a per-(src,dst) sequence
//     number (Message.RSeq) and a payload checksum (Message.Sum), keeps a
//     private copy of the payload, and retransmits on timeout with
//     exponential backoff until acknowledged or the retry budget is
//     exhausted.
//   - The receiver rejects corrupted frames by checksum (silently — the
//     origin retransmits an intact copy), acknowledges and deduplicates by
//     RSeq, and on ordered networks reassembles the per-link RSeq stream
//     so retransmission cannot reorder what the wire promised to order.
//   - Acknowledgements (KindRelAck) are themselves unreliable: a lost ack
//     costs one spurious retransmission, which the receiver dedups and
//     re-acks. Acks carry no payload, so payload corruption cannot touch
//     them.
//
// Reception is always on — any frame with RSeq != 0 is checksummed,
// deduplicated and acknowledged whether or not this rank enabled its own
// transmit relay. SPMD startup is not synchronized: a fast origin may
// have reliable frames in flight before the target's upper layers attach,
// and those frames must still be admitted. Transmission is opt-in via
// EnableReliability.
//
// There is no timer: the runtime calls Fire when every rank of a world is
// blocked in the library (DESIGN.md §9), and Fire retransmits the lost
// frame with the earliest virtual deadline, stamped with that deadline.

// ErrLinkFailed is the sentinel wrapped into every error produced by an
// exhausted retry budget: the relay declares the link down, fails the
// frames in flight on it, and rejects new sends to that rank.
var ErrLinkFailed = errors.New("link failed: retry budget exhausted")

// RetryPolicy tunes the transmit side of the reliable-delivery relay.
// Zero fields take the Default* constants.
type RetryPolicy struct {
	// Timeout is the virtual-time base retransmission timeout:
	// retransmission k (counting from 0) is stamped Timeout·Backoff^k
	// after the transmission before it.
	Timeout time.Duration
	// Backoff is the exponential backoff factor (≥ 1).
	Backoff float64
	// Budget is how many retransmissions the relay attempts before
	// declaring the link failed.
	Budget int
}

// Defaults for zero RetryPolicy fields.
const (
	DefaultRetryTimeout = 50 * time.Microsecond
	DefaultRetryBackoff = 2.0
	DefaultRetryBudget  = 8
)

// DefaultRetryWindow bounds how many out-of-order frames a receiver holds
// per link while reassembling the RSeq stream on ordered networks. Frames
// beyond the window are dropped unacknowledged (the origin retransmits
// them once the gap heals).
const DefaultRetryWindow = 256

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Timeout <= 0 {
		p.Timeout = DefaultRetryTimeout
	}
	if p.Backoff < 1 {
		p.Backoff = DefaultRetryBackoff
	}
	if p.Budget <= 0 {
		p.Budget = DefaultRetryBudget
	}
	return p
}

// backoff is the virtual wait before retransmission k (counting from 0):
// Timeout·Backoff^k.
func (p RetryPolicy) backoff(k int) time.Duration {
	return time.Duration(float64(p.Timeout) * math.Pow(p.Backoff, float64(k)))
}

// castagnoli is the CRC-32C table used for payload checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the payload checksum the relay attaches to tracked
// frames (CRC-32C; 0 for an empty payload).
func Checksum(p []byte) uint32 {
	if len(p) == 0 {
		return 0
	}
	return crc32.Checksum(p, castagnoli)
}

// txFrame is one unacknowledged tracked frame.
type txFrame struct {
	tmpl     simnet.Message // header template (payload stripped)
	payload  []byte         // private master copy of the payload
	vt       vtime.Time     // virtual send time of the latest transmission
	attempts int            // retransmissions so far
}

// txLink is the transmit state toward one destination rank.
type txLink struct {
	nextSeq  uint64
	inflight map[uint64]*txFrame
	down     bool
}

// relay is a NIC's transmit-side reliability engine.
type relay struct {
	n   *NIC
	pol RetryPolicy

	mu    lockrank.Mutex
	links map[int]*txLink
}

// dedupWindow tracks which RSeqs of one link have been delivered. It is
// compact — a contiguous base plus a sparse set above it — and safe
// across uint64 wraparound (comparisons are signed distances, so a
// window that straddles 2^64 keeps working; the fuzz test pins this
// against a map-based oracle).
type dedupWindow struct {
	// base: every RSeq in (base-2^63, base] has been delivered.
	base uint64
	// seen marks delivered RSeqs ahead of base.
	seen map[uint64]bool
}

// dup reports whether seq was already delivered.
func (w *dedupWindow) dup(seq uint64) bool {
	return int64(seq-w.base) <= 0 || w.seen[seq]
}

// admit records seq as delivered, folding the sparse set into base when
// the stream becomes contiguous. Callers check dup first.
func (w *dedupWindow) admit(seq uint64) {
	if seq == w.base+1 {
		w.base++
		for w.seen[w.base+1] {
			w.base++
			delete(w.seen, w.base)
		}
		return
	}
	if w.seen == nil {
		w.seen = make(map[uint64]bool)
	}
	w.seen[seq] = true
}

// rxLink is the receive state from one source rank.
type rxLink struct {
	// win dedups delivered RSeqs; on ordered networks the stream is
	// delivered contiguously so win.base alone carries the state.
	win dedupWindow
	// held parks out-of-order frames awaiting reassembly (ordered
	// networks only), keyed by RSeq.
	held map[uint64]*simnet.Message
}

// EnableReliability turns on the transmit relay: every subsequent
// NIC.Send/NIC.SendNIC is sequence-stamped, checksummed and retransmitted
// until acknowledged. runtime.NewWorld calls it on every NIC when the
// world has a fault plan or a retry policy. The first call wins; later
// calls are no-ops. Without it the send path pays one atomic nil check and
// nothing else.
func (n *NIC) EnableReliability(pol RetryPolicy) {
	n.relay.CompareAndSwap(nil, &relay{n: n, pol: pol.withDefaults(), mu: lockrank.Mutex{Rank: lockrank.Relay}, links: make(map[int]*txLink)})
}

// Reliable reports whether the transmit relay is enabled.
func (n *NIC) Reliable() bool { return n.relay.Load() != nil }

// SetLinkFailureHandler installs the callback invoked once per failed
// link, on the goroutine that runs Fire, when a retry budget is exhausted.
// The layer above uses it to fail outstanding requests instead of
// waiting for acknowledgements that will never come.
func (n *NIC) SetLinkFailureHandler(h func(dst int, at vtime.Time, err error)) {
	n.linkFail.Store(&h)
}

// SetRetransmitObserver installs a callback invoked for every
// retransmitted frame (telemetry feeds it into the trace timeline).
func (n *NIC) SetRetransmitObserver(obs func(dst int, rseq uint64, attempt int, at vtime.Time)) {
	n.retransObs.Store(&obs)
}

// link returns (creating if needed) the transmit state for dst. Caller
// holds r.mu.
func (r *relay) link(dst int) *txLink {
	l := r.links[dst]
	if l == nil {
		l = &txLink{inflight: make(map[uint64]*txFrame)}
		r.links[dst] = l
	}
	return l
}

// send tracks m and transmits it, via the CPU injection path (viaNIC
// false: charges origin overhead and gap) or the NIC firmware path. The
// master payload copy is private to the relay, so callers may recycle
// m.Payload as soon as send returns, and retransmissions are immune to
// receiver-side buffer pooling.
func (r *relay) send(now vtime.Time, m *simnet.Message, viaNIC bool) (vtime.Time, error) {
	if m.Dst < 0 || m.Dst >= r.n.ep.Ranks() {
		return 0, fmt.Errorf("simnet: send to invalid rank %d (network has %d)", m.Dst, r.n.ep.Ranks())
	}
	r.mu.Lock()
	l := r.link(m.Dst)
	if l.down {
		r.mu.Unlock()
		return 0, fmt.Errorf("portals: send to rank %d: %w", m.Dst, ErrLinkFailed)
	}
	l.nextSeq++
	m.RSeq = l.nextSeq
	m.Sum = Checksum(m.Payload)
	f := &txFrame{
		tmpl:    *m,
		payload: append([]byte(nil), m.Payload...),
	}
	f.tmpl.Payload = nil
	l.inflight[m.RSeq] = f
	r.mu.Unlock()

	var at vtime.Time
	var err error
	if viaNIC {
		at, err = r.n.ep.SendNIC(now, m)
	} else {
		at, err = r.n.ep.Send(now, m)
	}
	r.mu.Lock()
	if err != nil {
		delete(l.inflight, m.RSeq)
		if l.nextSeq == m.RSeq {
			l.nextSeq-- // leave no RSeq gap for the receiver to wait on
		}
	} else {
		f.vt = m.SentAt
	}
	r.mu.Unlock()
	return at, err
}

// deadline is when f times out — its latest transmission plus the
// backed-off timeout it is due — and the stamp of its retransmission.
func (r *relay) deadline(f *txFrame) vtime.Time {
	return f.vt + vtime.Time(r.pol.backoff(f.attempts))
}

// frameRef names one in-flight frame and its deadline.
type frameRef struct {
	r   *relay
	dst int
	seq uint64
	at  vtime.Time
}

// before orders frames by deadline, then origin, destination and RSeq, so
// one world state always picks the same frame.
func (a frameRef) before(b frameRef) bool {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.r.n.Rank(), b.r.n.Rank()),
		cmp.Compare(a.dst, b.dst), cmp.Compare(a.seq, b.seq)) < 0
}

// settled reports whether n's delivery token is free and its backlog
// empty (taking the token drains a backlog its last holder left).
func (n *NIC) settled() bool {
	if !n.token.TryLock() {
		return false
	}
	n.release()
	return n.queued.Load() == 0
}

// Fire advances a quiet world's delivery by one event, on any NIC's
// relay, and reports whether it did anything and whether any tracked frame
// is in flight. nics are the world's NICs, indexed by rank. It releases
// what unordered links still hold; failing that, it takes the in-flight
// frame with the earliest deadline whose fate is settled — neither its
// origin's NIC nor its destination's is delivering, and delivery runs to
// completion, so the frame or its acknowledgement was lost — and
// retransmits it, or, with its retry budget spent, fails its link and runs
// the link-failure handler on this goroutine. An unsettled frame is left
// alone: a trigger too early cannot spend budget on a frame only queued.
func Fire(nics []*NIC) (fired, inflight bool) {
	for _, n := range nics {
		fired = n.ep.Flush() || fired
	}
	if fired {
		return true, true
	}
	settled := make([]bool, len(nics))
	for i, n := range nics {
		settled[i] = n.settled()
	}
	var best frameRef
	for i, n := range nics {
		r := n.relay.Load()
		if r == nil {
			continue
		}
		r.mu.Lock()
		for dst, l := range r.links {
			inflight = inflight || len(l.inflight) > 0
			for seq, f := range l.inflight {
				if c := (frameRef{r, dst, seq, r.deadline(f)}); settled[i] && settled[dst] && (best.r == nil || c.before(best)) {
					best = c
				}
			}
		}
		r.mu.Unlock()
	}
	if best.r == nil {
		return false, inflight
	}
	best.r.fire(best)
	return true, true
}

// fire retransmits the frame ref names at its deadline, or fails its link
// when the frame has used up the retry budget. The retransmission is
// built under the lock but injected outside it: the send may run the
// peer's delivery inline, and its acknowledgement can come straight back
// into this relay's handleAck, which takes r.mu.
func (r *relay) fire(ref frameRef) {
	r.mu.Lock()
	l := r.links[ref.dst]
	f := l.inflight[ref.seq]
	if f == nil || r.deadline(f) != ref.at {
		r.mu.Unlock() // acknowledged or advanced meanwhile
		return
	}
	if f.attempts >= r.pol.Budget {
		l.down = true
		clear(l.inflight)
		r.mu.Unlock()
		err := fmt.Errorf("portals: rank %d to rank %d: %w", r.n.ep.ID(), ref.dst, ErrLinkFailed)
		if h := r.n.linkFail.Load(); h != nil {
			(*h)(ref.dst, f.vt, err)
		}
		return
	}
	f.attempts++
	f.vt = ref.at
	c := f.tmpl
	c.RSeq = ref.seq
	c.Payload = append([]byte(nil), f.payload...)
	net := r.n.ep.Network()
	net.Retries.Inc()
	net.RetransmitBytes.Add(int64(len(c.Payload)))
	if obs := r.n.retransObs.Load(); obs != nil {
		(*obs)(ref.dst, ref.seq, f.attempts, f.vt)
	}
	r.mu.Unlock()
	// NIC firmware work: no origin CPU cost. It fails only on a closed
	// network.
	_, _ = r.n.ep.SendNIC(ref.at, &c)
}

// handleAck processes one KindRelAck under the delivery token. Hdr[0] is
// the selective ack (the RSeq that triggered it); Hdr[1] is the
// receiver's cumulative base — everything at or below it is delivered.
func (r *relay) handleAck(m *simnet.Message) {
	sel, cum := m.Hdr[0], m.Hdr[1]
	r.mu.Lock()
	if l := r.links[m.Src]; l != nil {
		delete(l.inflight, sel)
		for seq := range l.inflight {
			if seq <= cum {
				delete(l.inflight, seq)
			}
		}
	}
	r.mu.Unlock()
}

// sendRelAck acknowledges a tracked frame: selective (the frame's RSeq)
// plus cumulative (the link's contiguous base). Sent as NIC firmware
// work at the frame's arrival time; best-effort — a lost ack costs one
// retransmission.
func (n *NIC) sendRelAck(src int, sel, cum uint64, at vtime.Time) {
	ack := &simnet.Message{Dst: src, Kind: KindRelAck}
	ack.Hdr[0] = sel
	ack.Hdr[1] = cum
	_, _ = n.ep.SendNIC(at, ack)
}

// rxAdmit filters one tracked inbound frame under the delivery token:
// checksum, dedup, ack, and (on ordered networks) RSeq reassembly.
// Admitted frames continue to kind dispatch exactly once, in RSeq order
// when the network promises order.
func (n *NIC) rxAdmit(m *simnet.Message) {
	if m.Sum != Checksum(m.Payload) {
		// Reject silently: no ack, so the origin retransmits intact bytes.
		n.ep.Network().CorruptRejected.Inc()
		return
	}
	if n.rx == nil {
		n.rx = make(map[int]*rxLink)
	}
	l := n.rx[m.Src]
	if l == nil {
		l = &rxLink{}
		n.rx[m.Src] = l
	}
	if !n.ep.Ordered() {
		// Unordered network: dedup only; the layers above already cope
		// with arbitrary arrival order.
		if l.win.dup(m.RSeq) {
			n.ep.Network().DupDropped.Inc()
			n.sendRelAck(m.Src, m.RSeq, l.win.base, m.ArriveAt) // re-ack: first ack may be lost
			return
		}
		l.win.admit(m.RSeq)
		n.sendRelAck(m.Src, m.RSeq, l.win.base, m.ArriveAt)
		n.dispatchKind(m)
		return
	}
	// Ordered network: deliver the RSeq stream contiguously so
	// retransmission cannot break the wire's FIFO promise.
	if l.win.dup(m.RSeq) || l.held[m.RSeq] != nil {
		n.ep.Network().DupDropped.Inc()
		n.sendRelAck(m.Src, m.RSeq, l.win.base, m.ArriveAt)
		return
	}
	if m.RSeq != l.win.base+1 {
		if len(l.held) >= DefaultRetryWindow {
			// Reassembly window full: drop unacknowledged; the origin
			// retransmits after the gap heals.
			return
		}
		if l.held == nil {
			l.held = make(map[uint64]*simnet.Message)
		}
		l.held[m.RSeq] = m
		n.sendRelAck(m.Src, m.RSeq, l.win.base, m.ArriveAt)
		return
	}
	l.win.base++
	n.sendRelAck(m.Src, m.RSeq, l.win.base, m.ArriveAt)
	n.dispatchKind(m)
	for {
		h := l.held[l.win.base+1]
		if h == nil {
			return
		}
		delete(l.held, l.win.base+1)
		l.win.base++
		n.dispatchKind(h)
	}
}

// LinkStatus is a point-in-time observation of one transmit link's
// reliability state, for health views and postmortems.
type LinkStatus struct {
	// Peer is the destination rank.
	Peer int
	// Down reports an exhausted retry budget (the link was declared
	// failed and will accept no further sends).
	Down bool
	// Inflight counts unacknowledged frames currently tracked.
	Inflight int
	// Attempts is the worst per-frame retransmission count in flight —
	// how close the hottest frame is to the retry budget.
	Attempts int
	// NextSeq is the next relay sequence number the link will stamp.
	NextSeq uint64
}

// RelayStatus snapshots every transmit link's reliability state, sorted
// by peer rank. It returns nil when reliable delivery is not enabled.
func (n *NIC) RelayStatus() []LinkStatus {
	r := n.relay.Load()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]LinkStatus, 0, len(r.links))
	for dst, l := range r.links {
		st := LinkStatus{Peer: dst, Down: l.down, Inflight: len(l.inflight), NextSeq: l.nextSeq + 1}
		for _, f := range l.inflight {
			if f.attempts > st.Attempts {
				st.Attempts = f.attempts
			}
		}
		out = append(out, st)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// RetryPatience returns the virtual time the relay lets pass before it has
// retransmitted a frame k times — the first k backed-off timeouts — or 0
// when reliable delivery is not enabled. A sender that has waited k quiet
// steps with no progress stamps its next frame that much later, as the
// relay would a retransmission.
func (n *NIC) RetryPatience(k int) time.Duration {
	var d time.Duration
	if r := n.relay.Load(); r != nil {
		for i := 0; i < k; i++ {
			d += r.pol.backoff(i)
		}
	}
	return d
}

// RetryBudget reports the relay's per-frame retransmission budget, or 0
// when reliable delivery is not enabled.
func (n *NIC) RetryBudget() int {
	if r := n.relay.Load(); r != nil {
		return r.pol.Budget
	}
	return 0
}
