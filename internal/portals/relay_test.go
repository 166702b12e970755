package portals

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
)

// FuzzDedupWindow pins the compact dedup window against a map-based
// oracle: same duplicate verdicts, including across uint64 wraparound,
// duplicate bursts, and replays from far below the base.
func FuzzDedupWindow(f *testing.F) {
	f.Add(uint64(0), []byte{1, 2, 3, 2, 1})
	f.Add(uint64(0), []byte{5, 4, 3, 2, 1, 1, 2, 3})
	f.Add(^uint64(0)-3, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // straddles 2^64
	f.Add(^uint64(0), []byte{0x80, 0x7f, 1, 0xff, 2})   // replays below base
	f.Fuzz(func(t *testing.T, start uint64, deltas []byte) {
		w := dedupWindow{base: start}
		oracle := map[uint64]bool{}
		for _, d := range deltas {
			// Signed delta around the starting base: negatives are
			// out-of-window replays, positives new or repeated seqs.
			seq := start + uint64(int64(int8(d)))
			wantDup := int64(seq-start) <= 0 || oracle[seq]
			if got := w.dup(seq); got != wantDup {
				t.Fatalf("dup(%d) = %v, oracle says %v (start %d)", seq, got, wantDup, start)
			}
			if !wantDup {
				w.admit(seq)
				oracle[seq] = true
			}
		}
		// Nothing admitted is ever forgotten (folding into base must not
		// lose coverage).
		for seq := range oracle {
			if !w.dup(seq) {
				t.Fatalf("admitted seq %d no longer reported as duplicate", seq)
			}
		}
	})
}

// relayRig is the two-rank put fixture used by the reliability tests:
// rank 1 exposes 256 bytes at portal index 5, rank 0 gets a 64-byte
// source MD pre-filled with 0xCD.
func relayRig(t *testing.T) (r *rig, srcMD *MD, srcEQ *EQ, tgtOff int) {
	t.Helper()
	r = newRig(t, 2, true)
	tgtRegion := r.mems[1].MustAlloc(256)
	tgtMD := r.nics[1].AttachMD(tgtRegion, nil, MDPut|MDGet)
	r.nics[1].Expose(5, tgtMD)
	srcRegion := r.mems[0].MustAlloc(64)
	r.mems[0].LocalWrite(srcRegion.Offset, bytes.Repeat([]byte{0xCD}, 64))
	srcEQ = NewEQ(0)
	srcMD = r.nics[0].AttachMD(srcRegion, srcEQ, 0)
	return r, srcMD, srcEQ, tgtRegion.Offset
}

// settle plays the quiet world for a rig, which has none: it calls Fire
// until no tracked frame is in flight, failing if frames are left that
// Fire will not touch.
func settle(t *testing.T, r *rig) {
	t.Helper()
	for {
		fired, inflight := Fire(r.nics)
		if !inflight {
			return
		}
		if !fired {
			t.Fatal("frames in flight, but none Fire can advance")
		}
	}
}

// TestRelayRetransmitOnDrop: a burst window that drops every frame on
// 0→1 early in virtual time forces the relay to retransmit; the
// retransmits carry virtual timestamps past the window, so the put is
// delivered exactly once and the ack completes it.
func TestRelayRetransmitOnDrop(t *testing.T) {
	r, srcMD, srcEQ, tgtOff := relayRig(t)
	r.net.SetFaults(&simnet.FaultPlan{
		Seed: 5,
		Bursts: []simnet.Burst{{
			Link:   simnet.LinkKey{Src: 0, Dst: 1},
			From:   0,
			Until:  vtime.Time(20 * time.Microsecond),
			Faults: simnet.LinkFaults{Drop: 1},
		}},
	})
	r.nics[0].EnableReliability(RetryPolicy{})

	if _, err := srcMD.Put(0, 0, 64, 1, 5, 32, true, 1); err != nil {
		t.Fatal(err)
	}
	settle(t, r)
	waitEvent(t, srcEQ, EvAck)
	if got := r.mems[1].Snapshot(tgtOff+32, 64); !bytes.Equal(got, bytes.Repeat([]byte{0xCD}, 64)) {
		t.Fatal("payload not deposited after retransmission")
	}
	if r.net.Retries.Value() == 0 {
		t.Fatal("drop burst survived without a single retransmit")
	}
	if r.net.FaultsDropped.Value() == 0 {
		t.Fatal("fault plan never dropped a frame")
	}
}

// TestRelayCorruptRejected: corrupted frames fail the payload checksum
// and are rejected silently (no ack), so the relay retransmits until a
// clean copy lands — the target memory never sees the corrupted bytes.
func TestRelayCorruptRejected(t *testing.T) {
	r, srcMD, srcEQ, tgtOff := relayRig(t)
	r.net.SetFaults(&simnet.FaultPlan{
		Seed: 17,
		Bursts: []simnet.Burst{{
			Link:   simnet.LinkKey{Src: 0, Dst: 1},
			From:   0,
			Until:  vtime.Time(20 * time.Microsecond),
			Faults: simnet.LinkFaults{Corrupt: 1},
		}},
	})
	r.nics[0].EnableReliability(RetryPolicy{})

	if _, err := srcMD.Put(0, 0, 64, 1, 5, 0, true, 2); err != nil {
		t.Fatal(err)
	}
	settle(t, r)
	waitEvent(t, srcEQ, EvAck)
	if got := r.mems[1].Snapshot(tgtOff, 64); !bytes.Equal(got, bytes.Repeat([]byte{0xCD}, 64)) {
		t.Fatal("target memory saw corrupted bytes")
	}
	if r.net.CorruptRejected.Value() == 0 {
		t.Fatal("no frame was checksum-rejected")
	}
	if r.net.Retries.Value() == 0 {
		t.Fatal("rejection without retransmission cannot have delivered")
	}
}

// TestRelayLinkFailureBudgetExhausted: a permanently dropping link
// exhausts the retry budget after Budget quiet steps; the failure handler
// fires with ErrLinkFailed, on the goroutine that runs Fire, and
// subsequent sends to the dead rank fail fast instead of queueing.
func TestRelayLinkFailureBudgetExhausted(t *testing.T) {
	r, srcMD, _, _ := relayRig(t)
	r.net.SetFaults(&simnet.FaultPlan{
		Seed:  9,
		Links: map[simnet.LinkKey]simnet.LinkFaults{{Src: 0, Dst: 1}: {Drop: 1}},
	})
	r.nics[0].EnableReliability(RetryPolicy{Budget: 2})
	var failed []error
	r.nics[0].SetLinkFailureHandler(func(dst int, at vtime.Time, err error) {
		if dst != 1 {
			t.Errorf("failure reported for rank %d, want 1", dst)
		}
		failed = append(failed, err)
	})

	if _, err := srcMD.Put(0, 0, 64, 1, 5, 0, true, 3); err != nil {
		t.Fatal(err)
	}
	settle(t, r)
	if len(failed) != 1 || !errors.Is(failed[0], ErrLinkFailed) {
		t.Fatalf("failure handler got %v, want one ErrLinkFailed", failed)
	}
	if got := r.net.Retries.Value(); got != 2 {
		t.Fatalf("link failed after %d retransmissions, want the budget of 2", got)
	}
	if _, err := srcMD.Put(0, 0, 64, 1, 5, 0, true, 4); !errors.Is(err, ErrLinkFailed) {
		t.Fatalf("send on a failed link returned %v, want ErrLinkFailed", err)
	}
}

// TestRelayDisabledSendUnchanged: without EnableReliability frames carry
// no relay sequence and no acks flow — the reliable-delivery machinery
// stays entirely out of the way.
func TestRelayDisabledSendUnchanged(t *testing.T) {
	r, srcMD, srcEQ, _ := relayRig(t)
	if r.nics[0].Reliable() {
		t.Fatal("relay enabled without EnableReliability")
	}
	if _, err := srcMD.Put(0, 0, 64, 1, 5, 0, true, 5); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, srcEQ, EvAck)
	if r.net.Retries.Value() != 0 || r.net.DupDropped.Value() != 0 {
		t.Fatal("relay counters moved with reliability disabled")
	}
}

// TestRelayRetransmitStamps: retransmission k of a frame is stamped
// exactly Timeout·Backoff^k after the transmission before it, whatever the
// policy, and the budget-th timeout fails the link instead.
func TestRelayRetransmitStamps(t *testing.T) {
	for _, pol := range []RetryPolicy{
		{Budget: 5},
		{Timeout: 10 * time.Microsecond, Backoff: 1.5, Budget: 6},
		{Timeout: time.Microsecond, Backoff: 3, Budget: 4},
	} {
		t.Run(fmt.Sprintf("%v×%v", pol.Timeout, pol.Backoff), func(t *testing.T) {
			r, srcMD, _, _ := relayRig(t)
			r.net.SetFaults(&simnet.FaultPlan{Links: map[simnet.LinkKey]simnet.LinkFaults{{Src: 0, Dst: 1}: {Drop: 1}}})
			r.nics[0].EnableReliability(pol)
			pol = pol.withDefaults()
			var stamps []vtime.Time
			r.nics[0].SetRetransmitObserver(func(dst int, rseq uint64, attempt int, at vtime.Time) {
				if attempt != len(stamps)+1 {
					t.Errorf("retransmission %d reported as attempt %d", len(stamps)+1, attempt)
				}
				stamps = append(stamps, at)
			})
			sent, err := srcMD.Put(0, 0, 64, 1, 5, 0, false, 1)
			if err != nil {
				t.Fatal(err)
			}
			settle(t, r)
			if len(stamps) != pol.Budget {
				t.Fatalf("%d retransmissions before the link failed, want the budget of %d", len(stamps), pol.Budget)
			}
			prev := sent
			for k, at := range stamps {
				if want := vtime.Time(float64(pol.Timeout) * math.Pow(pol.Backoff, float64(k))); at-prev != want {
					t.Errorf("retransmission %d stamped %v after the one before, want %v", k, at-prev, want)
				}
				prev = at
			}
		})
	}
}
