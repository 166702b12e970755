package simnet

import (
	"time"

	"mpi3rma/internal/vtime"
)

// Fault injection. A FaultPlan turns the lossless simulated wire into a
// misbehaving one: per-link drop/duplicate/delay/corrupt probabilities,
// one-shot partitions, and burst windows that override a link's fault
// rates for a span of virtual time. The plan is deterministic: every
// fault decision is a pure function of (plan seed, src, dst, wire
// sequence number), so a run that injects the same message sequence draws
// the same faults — no global rand, no cross-link coupling.
//
// simnet injects the faults; surviving delivery is somebody else's
// problem. The reliable-delivery relay in internal/portals retransmits
// dropped frames, rejects corrupted ones by checksum, and dedups
// duplicates, so layers above keep their exactly-once view of the wire.

// LinkKey names one directed (src, dst) link.
type LinkKey struct {
	Src, Dst int
}

// LinkFaults is one link's fault rates. All probabilities are in [0, 1]
// and evaluated independently per wire message, in the order drop,
// corrupt, delay, duplicate (a message can be both delayed and
// duplicated; a dropped message suffers nothing else).
type LinkFaults struct {
	// Drop is the probability a message vanishes on the wire.
	Drop float64
	// Dup is the probability the wire delivers a second copy.
	Dup float64
	// Corrupt is the probability one payload byte is flipped in flight.
	// Messages without payload cannot be corrupted.
	Corrupt float64
	// Delay is the probability a message's arrival is postponed by
	// DelayBy of virtual time.
	Delay float64
	// DelayBy is the extra virtual latency of a delayed message.
	DelayBy time.Duration
}

// active reports whether any fault rate is set.
func (f LinkFaults) active() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Corrupt > 0 || f.Delay > 0
}

// Partition cuts the A<->B link pair (both directions) for a window of
// virtual time: every message whose send time falls inside [From, Until)
// is dropped. Until 0 means forever — a one-shot, permanent cut.
type Partition struct {
	A, B        int
	From, Until vtime.Time
}

func (p Partition) covers(src, dst int, at vtime.Time) bool {
	if !((src == p.A && dst == p.B) || (src == p.B && dst == p.A)) {
		return false
	}
	return at >= p.From && (p.Until == 0 || at < p.Until)
}

// RankKill schedules a whole-rank crash: from At on, every message the
// rank sends or would receive is silently blackholed — survivors learn of
// the death only through timeouts and retry-budget exhaustion, exactly as
// on a real cluster where the node stops answering. RestartAt 0 means the
// rank never comes back; a non-zero RestartAt models a kill/restart
// schedule (the rank's traffic flows again from RestartAt on, though any
// protocol state it lost stays lost — recovery is the layers' problem).
type RankKill struct {
	Rank          int
	At, RestartAt vtime.Time
}

// dead reports whether the kill covers virtual time at.
func (k RankKill) dead(at vtime.Time) bool {
	return at >= k.At && (k.RestartAt == 0 || at < k.RestartAt)
}

// Burst overrides one directed link's fault rates for a window of virtual
// time (e.g. "drop everything from rank 1 to rank 0 for the first
// 200µs"). Until 0 means forever.
type Burst struct {
	Link        LinkKey
	From, Until vtime.Time
	Faults      LinkFaults
}

func (b Burst) covers(src, dst int, at vtime.Time) bool {
	if b.Link.Src != src || b.Link.Dst != dst {
		return false
	}
	return at >= b.From && (b.Until == 0 || at < b.Until)
}

// FaultPlan is a deterministic, seeded description of how the network
// misbehaves. Install it with Network.SetFaults. The zero plan (no rates,
// no partitions, no bursts) injects nothing.
type FaultPlan struct {
	// Seed drives every fault decision. Two networks carrying the same
	// message sequence under the same seed inject identical faults.
	Seed int64
	// Default applies to every link without a Links override.
	Default LinkFaults
	// Links overrides the default per directed link.
	Links map[LinkKey]LinkFaults
	// Partitions cut link pairs for windows of virtual time.
	Partitions []Partition
	// Bursts override a link's rates for windows of virtual time.
	Bursts []Burst
	// RankKills schedules whole-rank crashes (and optional restarts).
	RankKills []RankKill
}

// rankDead reports whether the plan declares rank dead at virtual time at.
func (p *FaultPlan) rankDead(rank int, at vtime.Time) bool {
	for i := range p.RankKills {
		if p.RankKills[i].Rank == rank && p.RankKills[i].dead(at) {
			return true
		}
	}
	return false
}

// RankDeadAt reports whether the installed fault plan declares rank dead
// at virtual time at. This is the simulation's ground truth — the
// stand-in for a RAS daemon's out-of-band node-death notification — and
// is what lets failure detection above distinguish a dead rank from a
// merely broken link (see DESIGN.md §14 for the determinism caveat).
func (n *Network) RankDeadAt(rank int, at vtime.Time) bool {
	p := n.faults.Load()
	return p != nil && p.rankDead(rank, at)
}

// linkFaults resolves the effective rates for one message.
func (p *FaultPlan) linkFaults(src, dst int, at vtime.Time) LinkFaults {
	lf := p.Default
	if f, ok := p.Links[LinkKey{src, dst}]; ok {
		lf = f
	}
	for i := range p.Bursts {
		if p.Bursts[i].covers(src, dst, at) {
			lf = p.Bursts[i].Faults
		}
	}
	return lf
}

// SetFaults installs a fault plan on the network (runtime.NewWorld does,
// from Config.Faults). The first non-nil install wins; later calls are
// no-ops. Passing nil never clears an installed plan.
// With no plan installed the send path pays one atomic load and nothing
// else.
func (n *Network) SetFaults(plan *FaultPlan) {
	if plan == nil {
		return
	}
	n.faults.CompareAndSwap(nil, plan)
}

// Faults returns the installed fault plan, or nil.
func (n *Network) Faults() *FaultPlan { return n.faults.Load() }

// Salts separating the independent fault draws of one message.
const (
	saltDrop = iota + 1
	saltDup
	saltCorrupt
	saltDelay
	saltCorruptIdx
	saltReorder // the unordered wire's release draw (simnet.go)
)

// faultHash is a splitmix64 finalizer over (seed, link, wire sequence,
// salt): deterministic, stateless, and cheap enough for the send path.
func faultHash(seed int64, src, dst int, seq uint64, salt uint64) uint64 {
	x := uint64(seed) ^ uint64(src)<<48 ^ uint64(dst)<<32 ^ seq ^ salt<<56
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultDraw returns a uniform draw in [0, 1) for one decision.
func faultDraw(seed int64, src, dst int, seq uint64, salt uint64) float64 {
	return float64(faultHash(seed, src, dst, seq, salt)>>11) / (1 << 53)
}

// injectFaults evaluates the plan against one outbound message, after the
// send/arrival times are stamped. It returns the message to deliver (nil
// if dropped — the sender never learns) and an optional duplicate to
// deliver as well. Corruption and duplication clone the message and copy
// the payload: the sender may retain the original bytes for
// retransmission, and the two delivered copies must not alias each other.
// A clone starts unconsumed: its consumer, not the original's, marks it.
func (n *Network) injectFaults(p *FaultPlan, m *Message) (deliver, dup *Message) {
	for i := range p.Partitions {
		if p.Partitions[i].covers(m.Src, m.Dst, m.SentAt) {
			n.FaultsDropped.Inc()
			return nil, nil
		}
	}
	lf := p.linkFaults(m.Src, m.Dst, m.SentAt)
	if !lf.active() {
		return m, nil
	}
	if lf.Drop > 0 && faultDraw(p.Seed, m.Src, m.Dst, m.Seq, saltDrop) < lf.Drop {
		n.FaultsDropped.Inc()
		return nil, nil
	}
	if lf.Corrupt > 0 && len(m.Payload) > 0 &&
		faultDraw(p.Seed, m.Src, m.Dst, m.Seq, saltCorrupt) < lf.Corrupt {
		c := *m
		c.consumed = 0
		c.Payload = append([]byte(nil), m.Payload...)
		idx := faultHash(p.Seed, m.Src, m.Dst, m.Seq, saltCorruptIdx) % uint64(len(c.Payload))
		c.Payload[idx] ^= 0xff
		m = &c
		n.FaultsCorrupted.Inc()
	}
	if lf.Delay > 0 && faultDraw(p.Seed, m.Src, m.Dst, m.Seq, saltDelay) < lf.Delay {
		m.ArriveAt += vtime.Time(lf.DelayBy)
		n.FaultsDelayed.Inc()
	}
	if lf.Dup > 0 && faultDraw(p.Seed, m.Src, m.Dst, m.Seq, saltDup) < lf.Dup {
		c := *m
		c.consumed = 0
		c.Payload = append([]byte(nil), m.Payload...)
		// The copy takes one extra wire latency, as a misrouted-and-
		// replayed frame would.
		c.ArriveAt += vtime.Time(n.cfg.Cost.Latency)
		dup = &c
		n.FaultsDuplicated.Inc()
	}
	return m, dup
}
