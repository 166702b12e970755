package dht

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

func newWorld(t *testing.T, cfg runtime.Config) *runtime.World {
	t.Helper()
	w := runtime.NewWorld(cfg)
	t.Cleanup(func() {
		if n := rma.LostRequests(w); n != 0 {
			t.Errorf("%d nonblocking requests lost: never observed, never completed", n)
		}
		w.Close()
	})
	return w
}

func val(m *Map, seed int) []byte {
	b := make([]byte, m.ValueSize())
	for i := range b {
		b[i] = byte(seed + i)
	}
	return b
}

// TestMapBasic: every rank upserts, reads, CASes and deletes its own
// keys, then reads the other ranks' keys cross-rank.
func TestMapBasic(t *testing.T) {
	const ranks, keysPer = 4, 24
	w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 3})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		m, err := Open(s, WithBuckets(64), WithValueSize(16))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		me := p.Rank()
		key := func(r, i int) int64 { return int64(r*1000 + i) }

		for i := 0; i < keysPer; i++ {
			if err := m.Put(key(me, i), val(m, me*keysPer+i)); err != nil {
				t.Errorf("rank %d put %d: %v", me, i, err)
			}
		}
		// Read-your-writes, then overwrite and read again.
		for i := 0; i < keysPer; i++ {
			got, ok, err := m.Get(key(me, i))
			if err != nil || !ok || !bytes.Equal(got, val(m, me*keysPer+i)) {
				t.Errorf("rank %d get %d: got %v ok=%v err=%v", me, i, got, ok, err)
			}
		}
		if err := m.Put(key(me, 0), val(m, 200+me)); err != nil {
			t.Errorf("rank %d overwrite: %v", me, err)
		}
		if got, ok, _ := m.Get(key(me, 0)); !ok || !bytes.Equal(got, val(m, 200+me)) {
			t.Errorf("rank %d overwrite read back %v ok=%v", me, got, ok)
		}

		// CAS: wrong expectation fails, right one lands.
		if swapped, err := m.CAS(key(me, 1), val(m, 99), val(m, 77)); err != nil || swapped {
			t.Errorf("rank %d CAS with stale expect: swapped=%v err=%v", me, swapped, err)
		}
		if swapped, err := m.CAS(key(me, 1), val(m, me*keysPer+1), val(m, 150+me)); err != nil || !swapped {
			t.Errorf("rank %d CAS: swapped=%v err=%v", me, swapped, err)
		}
		if got, ok, _ := m.Get(key(me, 1)); !ok || !bytes.Equal(got, val(m, 150+me)) {
			t.Errorf("rank %d CAS read back %v ok=%v", me, got, ok)
		}

		// Delete: present once, gone after.
		if hit, err := m.Delete(key(me, 2)); err != nil || !hit {
			t.Errorf("rank %d delete: hit=%v err=%v", me, hit, err)
		}
		if hit, err := m.Delete(key(me, 2)); err != nil || hit {
			t.Errorf("rank %d double delete: hit=%v err=%v", me, hit, err)
		}
		if _, ok, _ := m.Get(key(me, 2)); ok {
			t.Errorf("rank %d get after delete still present", me)
		}
		// CAS on an absent key is a clean miss.
		if swapped, err := m.CAS(key(me, 2), val(m, 1), val(m, 2)); err != nil || swapped {
			t.Errorf("rank %d CAS absent: swapped=%v err=%v", me, swapped, err)
		}

		p.Barrier()
		// Cross-rank reads of everyone's surviving keys.
		for r := 0; r < ranks; r++ {
			want := map[int][]byte{0: val(m, 200+r), 1: val(m, 150+r)}
			for i := 3; i < keysPer; i++ {
				want[i] = val(m, r*keysPer+i)
			}
			for i, exp := range want {
				got, ok, err := m.Get(key(r, i))
				if err != nil || !ok || !bytes.Equal(got, exp) {
					t.Errorf("rank %d reading rank %d key %d: %v ok=%v err=%v", me, r, i, got, ok, err)
				}
			}
			if _, ok, _ := m.Get(key(r, 2)); ok {
				t.Errorf("rank %d sees rank %d's deleted key", me, r)
			}
		}
		if st := m.Stats(); st.Gets == 0 || st.Puts == 0 {
			t.Errorf("rank %d stats never moved: %+v", me, st)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapProbeWrapAndFull: a 2x2-bucket table forces probe chains across
// the stripe boundary and a clean ErrTableFull when the fifth key
// arrives.
func TestMapProbeWrapAndFull(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 5})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		m, err := Open(s, WithBuckets(2), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		if p.Rank() != 0 {
			p.Barrier()
			return
		}
		for k := int64(0); k < 4; k++ {
			if err := m.Put(k, val(m, int(k))); err != nil {
				t.Errorf("put %d into 4-bucket table: %v", k, err)
			}
		}
		if err := m.Put(99, val(m, 99)); !errors.Is(err, ErrTableFull) {
			t.Errorf("fifth key: got %v, want ErrTableFull", err)
		}
		for k := int64(0); k < 4; k++ {
			if got, ok, err := m.Get(k); err != nil || !ok || !bytes.Equal(got, val(m, int(k))) {
				t.Errorf("get %d: %v ok=%v err=%v", k, got, ok, err)
			}
		}
		// A tombstone frees capacity without breaking the probe chains
		// threaded through it.
		if hit, _ := m.Delete(1); !hit {
			t.Error("delete(1) missed")
		}
		if err := m.Put(99, val(m, 99)); err != nil {
			t.Errorf("put into tombstone: %v", err)
		}
		for _, k := range []int64{0, 2, 3, 99} {
			if _, ok, err := m.Get(k); err != nil || !ok {
				t.Errorf("get %d after tombstone reuse: ok=%v err=%v", k, ok, err)
			}
		}
		if st := m.Stats(); st.ProbeSteps == 0 {
			t.Errorf("4 keys in 4 buckets never probed: %+v", st)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapContention: every rank CAS-increments the same counter key until
// each has landed `eachWins` increments; the final value must be exactly
// ranks*eachWins — the mutual-exclusion acceptance test for the bucket
// lock/version protocol.
func TestMapContention(t *testing.T) {
	const ranks, eachWins = 4, 8
	w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 11})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		m, err := Open(s, WithBuckets(16), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		enc := func(v int64) []byte {
			b := make([]byte, 8)
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
			return b
		}
		dec := func(b []byte) int64 {
			var v int64
			for i := 7; i >= 0; i-- {
				v = v<<8 | int64(b[i])
			}
			return v
		}
		const key = int64(42)
		issued := int64(0) // public requests this rank makes
		if p.Rank() == 0 {
			issued++
			if err := m.Put(key, enc(0)); err != nil {
				t.Errorf("seed put: %v", err)
			}
		}
		p.Barrier()
		for wins := 0; wins < eachWins; {
			issued += 2 // the Get and the CAS below
			cur, ok, err := m.Get(key)
			if err != nil || !ok {
				t.Errorf("rank %d get counter: ok=%v err=%v", p.Rank(), ok, err)
				panic("dht: counter vanished")
			}
			swapped, err := m.CAS(key, cur, enc(dec(cur)+1))
			if err != nil {
				t.Errorf("rank %d CAS: %v", p.Rank(), err)
				panic("dht: CAS failed")
			}
			if swapped {
				wins++
			}
		}
		p.Barrier()
		issued++
		got, ok, err := m.Get(key)
		if err != nil || !ok || dec(got) != ranks*eachWins {
			t.Errorf("rank %d final counter = %d ok=%v err=%v, want %d", p.Rank(), dec(got), ok, err, ranks*eachWins)
		}
		// Every request is counted once in the latency histogram and the
		// op counters, none missed the seeded key, and contention is
		// attributed per stripe.
		st, lat := m.Stats(), m.Latency()
		if lat.Count() != issued || st.Gets+st.Puts+st.CASes != issued || st.Misses != 0 {
			t.Errorf("rank %d issued %d requests: latency count %d, gets+puts+cases %d, misses %d",
				p.Rank(), issued, lat.Count(), st.Gets+st.Puts+st.CASes, st.Misses)
		}
		if p50, p99 := lat.Quantile(0.50), lat.Quantile(0.99); p50 <= 0 || p99 < p50 {
			t.Errorf("rank %d latency percentiles p50 %d p99 %d", p.Rank(), p50, p99)
		}
		if n := len(m.StripeContention()); n != m.Servers() {
			t.Errorf("rank %d contention covers %d stripes, want %d", p.Rank(), n, m.Servers())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// chaosPlans mirrors the core fault matrix: drop, dup, delay, corrupt —
// every plan must converge to the fault-free run's exact table bytes.
func chaosPlans() []struct {
	name string
	plan *simnet.FaultPlan
} {
	return []struct {
		name string
		plan *simnet.FaultPlan
	}{
		{"fault-free", nil},
		{"drop", &simnet.FaultPlan{
			Seed:    2001,
			Default: simnet.LinkFaults{Drop: 0.06},
		}},
		{"drop+dup", &simnet.FaultPlan{
			Seed:    2002,
			Default: simnet.LinkFaults{Drop: 0.04, Dup: 0.12},
		}},
		{"drop+dup+delay+corrupt", &simnet.FaultPlan{
			Seed: 2003,
			Default: simnet.LinkFaults{
				Drop: 0.03, Dup: 0.06, Corrupt: 0.03,
				Delay: 0.15, DelayBy: 4 * time.Microsecond,
			},
		}},
	}
}

// runMapChaos executes the deterministic-placement workload under one
// fault plan and returns every stripe's final bytes. Placement is made
// interleaving-independent by inserting in barrier-separated rounds
// (rank r inserts during round r); the update storm then works on
// disjoint keys, so retries change nothing: converged bytes — including
// version words — depend only on the operation multiset.
func runMapChaos(t *testing.T, plan *simnet.FaultPlan) []byte {
	t.Helper()
	const ranks, keysPer, updates = 4, 16, 8
	w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 7, Faults: plan})
	var final bytes.Buffer
	stripeBytes := make([][]byte, ranks)
	err := w.Run(func(p *runtime.Proc) {
		m, err := Open(rma.Open(p), WithBuckets(32), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht chaos: open failed")
		}
		me := p.Rank()
		key := func(r, i int) int64 { return int64(r*1000 + i) }

		// Deterministic placement: only rank r inserts in round r.
		for round := 0; round < ranks; round++ {
			if me == round {
				for i := 0; i < keysPer; i++ {
					if err := m.Put(key(me, i), val(m, me+i)); err != nil {
						t.Errorf("rank %d insert %d: %v", me, i, err)
						panic("dht chaos: insert failed")
					}
				}
			}
			p.Barrier()
		}
		// Disjoint-key update storm: no barriers, any interleaving.
		for u := 0; u < updates; u++ {
			for i := 0; i < keysPer; i++ {
				if err := m.Put(key(me, i), val(m, me+i+u+1)); err != nil {
					t.Errorf("rank %d update %d/%d: %v", me, u, i, err)
					panic("dht chaos: update failed")
				}
			}
		}
		// One delete per rank exercises tombstones deterministically.
		if hit, err := m.Delete(key(me, 0)); err != nil || !hit {
			t.Errorf("rank %d delete: hit=%v err=%v", me, hit, err)
		}
		p.Barrier()
		stripeBytes[me] = p.Mem().Snapshot(m.Local().Offset, m.PerRank()*(valOff+m.ValueSize()))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		final.Write(stripeBytes[r])
	}
	return final.Bytes()
}

// TestMapChaosMatrix: the table's converged bytes under every fault plan
// must equal the fault-free run's, byte for byte.
func TestMapChaosMatrix(t *testing.T) {
	plans := chaosPlans()
	want := runMapChaos(t, plans[0].plan)
	if len(want) == 0 {
		t.Fatal("fault-free run produced no stripe bytes")
	}
	for _, tc := range plans[1:] {
		t.Run(tc.name, func(t *testing.T) {
			got := runMapChaos(t, tc.plan)
			if !bytes.Equal(got, want) {
				diffs := 0
				for i := range got {
					if got[i] != want[i] {
						diffs++
					}
				}
				t.Errorf("table diverged under %s: %d/%d bytes differ", tc.name, diffs, len(want))
			}
		})
	}
}

// TestMapRankDeath: a stripe owner dies mid-storm; buddy replication
// rebuilds its stripe onto the spare and clients — armed with
// WithFailover — keep completing and then read back every key they wrote,
// including the ones living on the rebuilt stripe.
func TestMapRankDeath(t *testing.T) {
	const (
		ranks   = 4
		victim  = 1
		keysPer = 12
		rounds  = 30
	)
	plan := &simnet.FaultPlan{
		Seed:      7,
		RankKills: []simnet.RankKill{{Rank: victim, At: vtime.Time(300 * time.Microsecond)}},
	}
	w := newWorld(t, runtime.Config{Ranks: ranks, Spares: 1, Seed: 7, Faults: plan})
	failovers := make([]int64, ranks)
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithReplication())
		if p.IsSpare() {
			// Parked: the buddy replays the victim's regions onto this
			// rank's NIC; the process function has nothing to do.
			return
		}
		m, err := Open(s, WithBuckets(64), WithValueSize(8), WithFailover())
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht rankdeath: open failed")
		}
		me := p.Rank()
		if me == victim {
			// Pure stripe server from here on: its NIC applies and
			// replicates until the kill blackholes it. Returning early
			// keeps the test's surviving clients honest — nobody waits on
			// the victim's process function.
			return
		}
		key := func(i int) int64 { return int64(me*1000 + i) }
		// Write storm spanning the kill: every round overwrites the same
		// keys, so rank death surfaces inside Map operations and failover
		// must retarget mid-traffic.
		for round := 0; round < rounds; round++ {
			for i := 0; i < keysPer; i++ {
				if err := m.Put(key(i), val(m, me+i+round)); err != nil {
					t.Errorf("rank %d round %d put: %v", me, round, err)
					panic("dht rankdeath: put failed")
				}
			}
			p.Advance(vtime.Duration(20 * time.Microsecond))
		}
		// Every key must read back its final round's value — wherever its
		// bucket now lives.
		for i := 0; i < keysPer; i++ {
			got, ok, err := m.Get(key(i))
			if err != nil || !ok || !bytes.Equal(got, val(m, me+i+rounds-1)) {
				t.Errorf("rank %d key %d after death: %v ok=%v err=%v", me, i, got, ok, err)
			}
		}
		failovers[me] = m.Stats().Failovers
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range failovers {
		total += f
	}
	if total == 0 {
		t.Fatal("no client ever failed over; the kill landed outside the workload")
	}
	if w.Net().FaultsBlackholed.Value() == 0 {
		t.Fatal("rank kill blackholed nothing")
	}
}

// TestMapOpenValidation: bad geometry is rejected before any collective
// traffic.
func TestMapOpenValidation(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 1})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		for i, opts := range [][]Option{
			{WithBuckets(0)},
			{WithValueSize(-1)},
			{WithServers(3)},
		} {
			if _, err := Open(s, opts...); !errors.Is(err, rma.ErrBadHandle) {
				t.Errorf("case %d: got %v, want ErrBadHandle", i, err)
			}
		}
		// Wrong value length on a good map.
		m, err := Open(s, WithBuckets(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		if err := m.Put(1, make([]byte, m.ValueSize()+1)); !errors.Is(err, rma.ErrType) {
			t.Errorf("oversized value: got %v, want ErrType", err)
		}
		if _, err := m.CAS(1, make([]byte, 1), make([]byte, m.ValueSize())); !errors.Is(err, rma.ErrType) {
			t.Errorf("undersized CAS expect: got %v, want ErrType", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapMetricsRegistered: with session metrics on, the map's counters
// and latency histogram appear under their dotted names.
func TestMapMetricsRegistered(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 2})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithMetrics())
		m, err := Open(s, WithBuckets(16))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		if err := m.Put(int64(p.Rank()), val(m, 1)); err != nil {
			t.Errorf("put: %v", err)
		}
		if _, _, err := m.Get(int64(p.Rank())); err != nil {
			t.Errorf("get: %v", err)
		}
		reg := s.Metrics()
		if c := reg.Counter("dht.puts"); c == nil || c.Value() == 0 {
			t.Error("dht.puts missing or zero")
		}
		if h := reg.Histogram("latency.dht.request"); h.Count() == 0 {
			t.Error("latency.dht.request recorded nothing")
		}
		for i := 0; i < m.Servers(); i++ {
			if reg.Counter(fmt.Sprintf("dht.contention.stripe.%d", i)) == nil {
				t.Errorf("dht.contention.stripe.%d unregistered", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapRMAOpsPerRequest pins the RMA operations each public call issues
// on an uncontended table: a bucket snapshot is one Get, a claim or a
// tombstone one CompareSwap, and a write-back two ordered puts (payload,
// then unlock word) whose Complete issues nothing.
func TestMapRMAOpsPerRequest(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 31})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		m, err := Open(s, WithServers(1), WithBuckets(64), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		if p.Rank() == 1 {
			// a's chain is its home bucket then an empty one; b's home is
			// neither, so b is absent after a single snapshot.
			const a = int64(1)
			b := int64(2)
			for m.home(b) == m.home(a) || m.home(b) == (m.home(a)+1)%m.total {
				b++
			}
			for _, tc := range []struct {
				name string
				want int64
				ok   bool
				do   func() (bool, error)
			}{
				{"get miss", 1, false, func() (bool, error) { _, ok, err := m.Get(a); return ok, err }},
				{"put insert", 4, true, func() (bool, error) { return true, m.Put(a, val(m, 1)) }},
				{"get hit", 1, true, func() (bool, error) { _, ok, err := m.Get(a); return ok, err }},
				{"put update", 4, true, func() (bool, error) { return true, m.Put(a, val(m, 2)) }},
				{"cas ok", 4, true, func() (bool, error) { return m.CAS(a, val(m, 2), val(m, 3)) }},
				{"cas mismatch", 1, false, func() (bool, error) { return m.CAS(a, val(m, 2), val(m, 4)) }},
				{"cas absent", 1, false, func() (bool, error) { return m.CAS(b, val(m, 3), val(m, 4)) }},
				{"delete hit", 2, true, func() (bool, error) { return m.Delete(a) }},
				{"delete deleted", 2, false, func() (bool, error) { return m.Delete(a) }},
				{"put into tombstone", 5, true, func() (bool, error) { return true, m.Put(a, val(m, 5)) }},
			} {
				before := s.Engine().OpsIssued.Value()
				ok, err := tc.do()
				if n := s.Engine().OpsIssued.Value() - before; err != nil || ok != tc.ok || n != tc.want {
					t.Errorf("%s: ok=%v err=%v after %d RMA ops, want ok=%v after %d", tc.name, ok, err, n, tc.ok, tc.want)
				}
			}
			if got, ok, err := m.Get(a); err != nil || !ok || !bytes.Equal(got, val(m, 5)) {
				t.Errorf("final get: %v ok=%v err=%v", got, ok, err)
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapMixedByteOrder: rank 1 is big-endian and rank 0 little-endian,
// and each serves a stripe. Every rank's keys land on both stripes, so
// both kinds of client insert, overwrite, read, CAS and delete words
// stored in the other order. Words are kept in the stripe owner's order,
// the one CompareSwap reads them in; a client encoding its own order
// would spin forever on a claim that can never match.
func TestMapMixedByteOrder(t *testing.T) {
	const ranks, keysPer = 2, 16
	w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 37, ByteOrder: func(r int) datatype.ByteOrder {
		return datatype.ByteOrder(r % 2)
	}})
	runBounded(t, w, 20*time.Second, func(p *runtime.Proc) {
		m, err := Open(rma.Open(p), WithBuckets(16), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		me := p.Rank()
		key := func(r, i int) int64 { return int64(r*1000 + i) }
		for i := 0; i < keysPer; i++ {
			if err := m.Put(key(me, i), val(m, i)); err != nil {
				t.Errorf("rank %d put %d: %v", me, i, err)
				return
			}
			if err := m.Put(key(me, i), val(m, 100+i)); err != nil {
				t.Errorf("rank %d overwrite %d: %v", me, i, err)
				return
			}
			if swapped, err := m.CAS(key(me, i), val(m, 100+i), val(m, me*50+i)); err != nil || !swapped {
				t.Errorf("rank %d CAS %d: swapped=%v err=%v", me, i, swapped, err)
				return
			}
		}
		if hit, err := m.Delete(key(me, 0)); err != nil || !hit {
			t.Errorf("rank %d delete: hit=%v err=%v", me, hit, err)
		}
		p.Barrier()
		for r := 0; r < ranks; r++ {
			for i := 0; i < keysPer; i++ {
				got, ok, err := m.Get(key(r, i))
				if i == 0 {
					if ok || err != nil {
						t.Errorf("rank %d reads rank %d's deleted key: ok=%v err=%v", me, r, ok, err)
					}
				} else if err != nil || !ok || !bytes.Equal(got, val(m, r*50+i)) {
					t.Errorf("rank %d reading rank %d key %d: %v ok=%v err=%v", me, r, i, got, ok, err)
				}
			}
		}
	})
}

// runBounded runs fn on every rank and fails the test, instead of hanging
// it, when the world has not finished within limit.
func runBounded(t *testing.T, w *runtime.World, limit time.Duration, fn func(p *runtime.Proc)) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		t.Fatalf("world wedged for %v", limit)
	}
}
