package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"

	"mpi3rma/dht"
	"mpi3rma/dht/queue"
	"mpi3rma/internal/datatype"
	"mpi3rma/internal/serializer"
	"mpi3rma/rma"
)

// Op counts per issuing rank per round. They are the issue's counts times
// opScale, which keeps a round near a quarter of a second on the two-core
// reference host so that ten seconds hold about forty rounds.
const (
	opScale = 0.5

	put8bOps   = 240_000 * opScale
	put1kOps   = 4_000 * opScale
	stridedOps = 40_000 * opScale
	fig2Ops    = 84_000 * opScale
	dhtOps     = 27_000 * opScale
	queueOps   = 3_500 * opScale

	completeEvery = 100

	dhtKeys    = 16384
	dhtBuckets = 16384
	dhtZipfS   = 1.1
	dhtReadPct = 90

	queueSlots    = 64
	queueSlotSize = 16
)

// The three transfer shapes the put workloads and the layer drives share.
var (
	vecType  = rma.Vector(8, 1, 2, rma.Int64)
	shapeB8  = shape{"b8", 1, rma.Int64}
	shapeB1k = shape{"b1k", 1024, rma.Byte}
	shapeVec = shape{"vec", 8, vecType}
)

type shape struct {
	name  string
	count int
	dt    rma.Type
}

func (s shape) extent() int { return datatype.ExtentOf(s.count, s.dt) }

var workloads = []*workload{
	{
		name: "put_8b",
		why:  "Fixed per-operation path (rma, core issue, portals, simnet, NIC agent, deposit, wakeup) with one datatype element: per-op host cost sets the rate; the bypass for datatype work.",
		worlds: []worldSpec{{ranks: 2, issuers: []int{1}, phases: 1,
			perRank: func(c *rank) { putLoop(c, shapeB8, put8bOps) }}},
	},
	{
		name: "put_1k",
		why:  "1024 x Byte, Fig. 2's 1 KiB cell: datatype signature and pack and core's per-element deposit do nearly all the work, so a contiguous fast path must show here.",
		worlds: []worldSpec{{ranks: 2, issuers: []int{1}, phases: 1,
			perRank: func(c *rank) { putLoop(c, shapeB1k, put1kOps) }}},
	},
	{
		name:   "strided_getput",
		why:    "Alternating Put and Get of 8 x Vector(8,1,2,Int64): the general non-contiguous datatype walk and the get reply path; a contiguous fast path should leave it unchanged.",
		worlds: []worldSpec{{ranks: 2, issuers: []int{1}, phases: 1, perRank: stridedGetPut}},
	},
	{
		name: "fig2_attrs",
		why:  "The paper's Fig. 2 in steady state: two origins put one overlapping word under ordering, remote completion, atomic+thread and atomic+coarse lock; serializer, lock and ACK cost.",
		worlds: []worldSpec{
			{ranks: 3, issuers: []int{1, 2}, phases: len(fig2Thread),
				perRank: func(c *rank) { fig2(c, fig2Thread) }},
			{ranks: 3, issuers: []int{1, 2}, phases: len(fig2CoarseLock),
				opts:    []rma.SessionOption{rma.WithAtomicity(serializer.MechCoarseLock)},
				perRank: func(c *rank) { fig2(c, fig2CoarseLock) }},
		},
	},
	{
		name:   "dht_zipf",
		why:    "The service layer users call: 2 clients, 2 servers, Zipf 1.1 over 16384 keys, 90% Get: FetchWord, CompareSwap and Get round trips, so it shows what a put-path gain costs reads.",
		worlds: []worldSpec{{ranks: 4, issuers: []int{2, 3}, phases: 1, perRank: dhtZipf}},
	},
	{
		name:   "queue_handoff",
		why:    "2 producers hand 16 B tasks to 2 consumers through a 64-slot ring on rank 0: the same RMW and put primitives in a wait-for-peer pattern; the remote-poll sink a notified put removes.",
		worlds: []worldSpec{{ranks: 4, issuers: []int{0, 1, 2, 3}, opRanks: 2, phases: 1, perRank: queueHandoff}},
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// exposeAtZero has rank 0 expose size bytes and ship the descriptor to every
// other rank, as the strawman asks of the user. Rank 0 gets its region back.
func exposeAtZero(c *rank, size int) (rma.TargetMem, rma.Region) {
	if c.id == 0 {
		tm, region := c.s.Expose(size)
		enc := tm.Encode()
		for r := 1; r < c.p.Size(); r++ {
			c.p.Send(r, 0, enc)
		}
		return tm, region
	}
	enc, _ := c.p.Recv(0, 0)
	tm, err := rma.DecodeTargetMem(enc)
	if err != nil {
		panic(err)
	}
	return tm, rma.Region{}
}

// putLoop is put_8b and put_1k: rank 1 issues blocking puts of one shape to
// one place on rank 0, Complete every completeEvery puts. The payload
// changes every round; rank 0's memory must end as the last payload.
func putLoop(c *rank, sh shape, ops float64) {
	size := sh.extent()
	tm, target := exposeAtZero(c, size)
	payload := make([]byte, size)
	var src rma.Region
	if c.id == 1 {
		src = c.p.Alloc(size)
	}
	blocking := rma.WithBlocking()
	c.phase("put", int(ops), func(n int) {
		c.rng.Read(payload)
		c.p.WriteLocal(src, 0, payload)
		for i := 1; i <= n; i++ {
			t := c.begin()
			_, err := c.s.Put(src, sh.count, sh.dt, tm, 0, blocking)
			c.end(kPut, t, err)
			if i%completeEvery == 0 || i == n {
				c.complete(0)
			}
		}
	})
	c.out = payload
	c.verify(func() {
		if c.id == 0 {
			want := c.peer(1).out.([]byte)
			c.check(bytes.Equal(c.p.Mem().Snapshot(target.Offset, size), want))
		}
	})
}

// stridedGetPut alternates a blocking Put and a blocking Get of the vec
// shape at one displacement. The first payload word changes before every
// Put, the rest every round; each Get must return the preceding Put.
func stridedGetPut(c *rank) {
	sh := shapeVec
	size := sh.extent()
	tm, target := exposeAtZero(c, size)
	var src, dst rma.Region
	if c.id == 1 {
		src, dst = c.p.Alloc(size), c.p.Alloc(size)
	}
	// runs are the payload bytes of the layout; the holes between them are
	// not transferred.
	var runs [][2]int
	for i := 0; i < sh.count; i++ {
		datatype.Walk(sh.dt, func(off, n int, k datatype.Kind) {
			runs = append(runs, [2]int{i*sh.dt.Extent() + off, n * k.Width()})
		})
	}
	sent, got := make([]byte, size), make([]byte, size)
	samePayload := func(a, b []byte) bool {
		for _, r := range runs {
			if !bytes.Equal(a[r[0]:r[0]+r[1]], b[r[0]:r[0]+r[1]]) {
				return false
			}
		}
		return true
	}
	blocking := rma.WithBlocking()
	var serial uint64
	c.phase("getput", int(stridedOps), func(n int) {
		c.rng.Read(sent)
		c.p.WriteLocal(src, 0, sent)
		for i := 1; i <= n; i++ {
			if i%2 == 1 {
				serial++
				binary.LittleEndian.PutUint64(sent, serial)
				c.p.WriteLocal(src, 0, sent[:8])
				t := c.begin()
				_, err := c.s.Put(src, sh.count, sh.dt, tm, 0, blocking)
				c.end(kPut, t, err)
			} else {
				t := c.begin()
				_, err := c.s.Get(dst, sh.count, sh.dt, tm, 0, blocking)
				c.end(kGet, t, err)
				if err := c.p.Mem().LocalRead(dst.Offset, got); err != nil {
					panic(err)
				}
				c.check(samePayload(sent, got))
			}
			if i%completeEvery == 0 || i == n {
				c.complete(0)
			}
		}
	})
	c.out = sent
	c.verify(func() {
		if c.id == 0 {
			c.check(samePayload(c.p.Mem().Snapshot(target.Offset, size), c.peer(1).out.([]byte)))
		}
	})
}

type fig2Phase struct {
	name string
	attr rma.AttrOption
}

// The atomicity mechanism belongs to the session, so the coarse-lock phase
// needs a world of its own.
var (
	fig2Thread = []fig2Phase{
		{"ordering", rma.WithOrdering()},
		{"remote_complete", rma.WithRemoteComplete()},
		{"atomic_thread", rma.WithAtomic()},
	}
	fig2CoarseLock = []fig2Phase{{"atomic_coarse_lock", rma.WithAtomic()}}
)

// fig2 has ranks 1 and 2 put one Int64 to the same word on rank 0 under each
// phase's attribute. Each origin's value changes every round; at the end the
// word must hold the last value of exactly one origin.
func fig2(c *rank, phases []fig2Phase) {
	tm, target := exposeAtZero(c, 8)
	word := make([]byte, 8)
	var src rma.Region
	if c.id != 0 {
		src = c.p.Alloc(8)
	}
	blocking := rma.WithBlocking()
	for _, ph := range phases {
		attr := ph.attr
		c.phase(ph.name, int(fig2Ops), func(n int) {
			binary.LittleEndian.PutUint64(word, c.rng.Uint64()<<2|uint64(c.id))
			c.p.WriteLocal(src, 0, word)
			for i := 1; i <= n; i++ {
				t := c.begin()
				_, err := c.s.Put(src, 1, rma.Int64, tm, 0, blocking, attr)
				c.end(kPut, t, err)
				if i%completeEvery == 0 || i == n {
					c.complete(0)
				}
			}
		})
	}
	c.out = word
	c.verify(func() {
		if c.id == 0 {
			got := c.p.Mem().Snapshot(target.Offset, 8)
			c.check(bytes.Equal(got, c.peer(1).out.([]byte)) || bytes.Equal(got, c.peer(2).out.([]byte)))
		}
	})
}

// dhtValue embeds the key, so any value read can be checked against the key
// it was read under.
func dhtValue(buf []byte, key int64, version uint32) {
	binary.LittleEndian.PutUint64(buf, uint64(key)<<32|uint64(version))
}

func dhtValueOK(v []byte, key int64) bool {
	return len(v) == 8 && int64(binary.LittleEndian.Uint64(v)>>32) == key
}

// dhtZipf runs two closed-loop clients (ranks 2, 3) against a table striped
// over ranks 0 and 1. Set-up preloads every key; a final sweep re-reads all
// of them.
func dhtZipf(c *rank) {
	m, err := dht.Open(c.s, dht.WithServers(2), dht.WithBuckets(dhtBuckets), dht.WithValueSize(8))
	if err != nil {
		panic(err)
	}
	val := make([]byte, 8)
	client := c.id - 2
	if client >= 0 {
		for k := int64(client); k < dhtKeys; k += 2 {
			dhtValue(val, k, 0)
			if err := m.Put(k, val); err != nil {
				panic(err)
			}
		}
	}
	c.snap = func(add func(string, int64)) {
		st := m.Stats()
		add("dht.probe_steps", st.ProbeSteps)
		add("dht.lock_retries", st.LockRetries)
		add("dht.cas_races", st.CASRaces)
		add("dht.misses", st.Misses)
	}
	zipf := rand.NewZipf(c.rng, dhtZipfS, 1, dhtKeys-1)
	var version uint32
	c.phase("serve", int(dhtOps), func(n int) {
		for i := 0; i < n; i++ {
			key := int64(zipf.Uint64())
			if c.rng.Intn(100) < dhtReadPct {
				t := c.begin()
				v, ok, err := m.Get(key)
				c.end(kDhtGet, t, err)
				c.check(ok && dhtValueOK(v, key))
			} else {
				version++
				dhtValue(val, key, version)
				t := c.begin()
				err := m.Put(key, val)
				c.end(kDhtPut, t, err)
			}
		}
	})
	c.verify(func() {
		if client < 0 {
			return
		}
		for k := int64(client); k < dhtKeys; k += 2 {
			v, ok, err := m.Get(k)
			c.check(err == nil && ok && dhtValueOK(v, k))
		}
	})
}

// taskWord2 is the second word of a task, a function of the first, so a
// consumer can check a task it never saw produced.
func taskWord2(w1, seed uint64) uint64 { return (w1 ^ seed) * 0x9E3779B97F4A7C15 }

// queueHandoff has ranks 2 and 3 enqueue and ranks 0 and 1 dequeue the same
// number of tasks each round, so the ring is empty at every barrier. A
// logical op is one task handed over; both its calls are timed. Count and
// checksum must agree across the two sides.
func queueHandoff(c *rank) {
	q, err := queue.New(c.s, 0, queueSlots, queueSlotSize)
	if err != nil {
		panic(err)
	}
	c.snap = func(add func(string, int64)) {
		st := q.Stats()
		add("dht.queue.polls", st.ProducerPolls+st.ConsumerPolls)
		add("dht.queue.dequeues", st.Dequeues)
	}
	seed := uint64(c.w.o.seed)
	producer := c.id >= 2
	task := make([]byte, queueSlotSize)
	var serial, count, sum uint64
	c.phase("handoff", int(queueOps), func(n int) {
		for i := 0; i < n; i++ {
			if producer {
				serial++
				w1 := uint64(c.id)<<48 | serial
				binary.LittleEndian.PutUint64(task, w1)
				binary.LittleEndian.PutUint64(task[8:], taskWord2(w1, seed))
				t := c.begin()
				err := q.Enqueue(task)
				c.end(kEnqueue, t, err)
				count++
				sum += w1
				continue
			}
			t := c.begin()
			got, err := q.Dequeue()
			c.end(kDequeue, t, err)
			if err != nil || len(got) != queueSlotSize {
				continue
			}
			w1 := binary.LittleEndian.Uint64(got)
			c.check(binary.LittleEndian.Uint64(got[8:]) == taskWord2(w1, seed))
			count++
			sum += w1
		}
	})
	c.out = [2]uint64{count, sum}
	c.verify(func() {
		if c.id != 0 {
			return
		}
		side := func(a, b int) [2]uint64 {
			x, y := c.peer(a).out.([2]uint64), c.peer(b).out.([2]uint64)
			return [2]uint64{x[0] + y[0], x[1] + y[1]}
		}
		c.check(side(0, 1) == side(2, 3))
	})
}
