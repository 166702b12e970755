// Package dht is a distributed hash table built purely on the one-sided
// rma surface — the "serve real traffic" consumer the ROADMAP names, and
// the shape of foMPI's flagship demo: an open-addressing table striped
// across every rank's exposed memory, accessed with Put/Get/CAS and 8-byte
// read-modify-write words, never with messages to the owner's CPU.
//
// Layout. Each of the first Servers() ranks exposes a stripe of PerRank()
// fixed-size buckets; bucket i of the global table lives at stripe
// i/perRank, local slot i%perRank. A bucket is
//
//	[ word int64 | key int64 | value ValueSize bytes ]
//
// where word packs a version counter and a 2-bit state:
//
//	word = version<<2 | state     state: 0 empty, 1 locked, 2 full,
//	                                     3 tombstone
//
// Zeroed memory is an empty table. Words and keys are stored in the
// stripe owner's byte order, the order its CompareSwap reads them in, so
// clients of either byte order share one table. Keys hash with splitmix64
// and probe linearly through the global index space, wrapping across
// stripes, so a nearly-full stripe spills onto the next rank instead of
// failing.
//
// Protocol. Readers issue one blocking Get of the whole bucket: target
// applies are per-operation atomic, so the snapshot is consistent — a
// full word means the value bytes belong to that version, a locked word
// means a writer is mid-update and the reader retries. Writers claim a
// bucket by CompareSwap on the word (empty/tombstone/full -> locked,
// version+1), stream key and value with ordered puts, and unlock by
// putting full with version+2; the ordered unlock cannot overtake the
// value bytes, and one Complete per mutation makes the whole transition
// durable before the call returns. Those puts are blocking, so they take
// no request: each is done at its send, as MPI_Put is, and the Complete
// is what the caller waits on. Every successful transition increments
// the version exactly once, so a CompareSwap on a full word at version v
// proves the value bytes are still the ones snapshotted at v — the basis
// of Map.CAS. Retries never touch the word, which keeps converged table
// bytes independent of contention interleavings (the chaos tests compare
// stripes byte-exact against a fault-free run).
//
// Every operation is one probe walk (seek, over read's snapshots) and at
// most one word transition (swap): Get reads, Delete swaps full to
// tombstone, Put and CAS swap to locked and finish. In the steady state
// none of them allocates: Get returns a slice of the handle's own buffer,
// valid until the handle's next call.
//
// All table traffic rides the session it was opened on: sharding, events
// and buddy replication all apply, and so does the world's fault plan
// (runtime.Config.Faults). Batching does not: every table operation is
// blocking or a read-modify-write, and neither rides the issue ring. With
// WithFailover a map whose stripe owner is declared dead (ErrRankFailed)
// waits for the spare rebuild and retries against the successor.
package dht

import (
	"bytes"
	"errors"
	"fmt"
	gort "runtime"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

// Bucket word states.
const (
	stateEmpty  = 0
	stateLocked = 1
	stateFull   = 2
	stateTomb   = 3
)

const (
	wordOff = 0 // lock/version word
	keyOff  = 8 // key int64
	valOff  = 16
)

// Defaults for Open.
const (
	DefaultBuckets   = 1024
	DefaultValueSize = 8
)

// ErrTableFull reports a probe that visited every bucket of the table
// without finding a claimable one.
var ErrTableFull = errors.New("dht: no free bucket in the table")

// Option configures Open — the same functional-option shape as rma.Open,
// with the taxonomy trivial because every dht option is collective.
type Option func(*config)

type config struct {
	perRank  int
	valSize  int
	servers  int
	failover bool
}

// WithBuckets sets the number of buckets each server rank exposes
// (default DefaultBuckets).
func WithBuckets(perRank int) Option {
	return func(c *config) { c.perRank = perRank }
}

// WithValueSize fixes the value payload per bucket in bytes (default
// DefaultValueSize). Every Put/CAS value must be exactly this long.
func WithValueSize(n int) Option {
	return func(c *config) { c.valSize = n }
}

// WithServers stripes the table over only the first n world ranks;
// the remaining ranks are pure clients (default: every rank serves).
func WithServers(n int) Option {
	return func(c *config) { c.servers = n }
}

// WithFailover makes operations survive a stripe owner's death: on
// ErrRankFailed the map waits for the spare rebuild (AwaitRebuilt),
// retargets the stripe at the successor, and retries. Pair it with
// rma.WithReplication on the session, or the rebuild never comes.
func WithFailover() Option {
	return func(c *config) { c.failover = true }
}

// Stats is a snapshot of one map handle's client-side counters.
type Stats struct {
	Gets, Puts, Deletes, CASes int64 // public operations completed
	Misses                     int64 // Gets that found no key
	ProbeSteps                 int64 // buckets examined beyond the home slot
	LockRetries                int64 // re-reads of a locked bucket
	CASRaces                   int64 // claim CompareSwaps lost to a racer
	Failovers                  int64 // stripe retargets after a rank death
}

// Map is one rank's handle on the global table. A handle is owned by its
// rank's process function and is not safe for concurrent use, matching
// the rest of the rma surface.
type Map struct {
	s       *rma.Session
	p       *runtime.Proc
	stripes []rma.TargetMem
	local   rma.Region // this rank's stripe (zero Region on pure clients)

	perRank  int
	valSize  int
	bucketSz int
	total    int // buckets in the table, and the probe's bound
	failover bool

	buf rma.Region // bucket image: snapshot gets land here, write-back puts leave from here
	// val is what Get returns, cmp what CAS compares expect with: callers
	// pass Get's slice back to CAS as expect.
	val, cmp []byte

	gets, puts, deletes, cases        stats.Counter
	misses                            stats.Counter
	probeSteps, lockRetries, casRaces stats.Counter
	failovers                         stats.Counter
	contention                        []stats.Counter // per stripe: lock retries + lost claims
	lat                               *stats.Histogram
}

// Open builds a map handle collectively: every compute rank of the world
// must call it with the same options. Each of the first Servers ranks
// exposes perRank buckets; every rank (server or client) receives the
// stripe descriptors and can operate on the table immediately. The zeroed
// fresh memory is the empty table — no initialization traffic.
func Open(s *rma.Session, opts ...Option) (*Map, error) {
	p := s.Proc()
	cfg := config{
		perRank: DefaultBuckets,
		valSize: DefaultValueSize,
		servers: p.Size(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.perRank <= 0 || cfg.valSize <= 0 {
		return nil, fmt.Errorf("dht: buckets and value size must be positive (got %d, %d): %w", cfg.perRank, cfg.valSize, rma.ErrBadHandle)
	}
	if cfg.servers <= 0 || cfg.servers > p.Size() {
		return nil, fmt.Errorf("dht: %d servers in a %d-rank world: %w", cfg.servers, p.Size(), rma.ErrBadHandle)
	}
	bucketSz := valOff + cfg.valSize
	total := cfg.servers * cfg.perRank

	// Collective allocation: uniform size keeps the exchange symmetric;
	// only the first Servers stripes are ever addressed.
	tms, local, err := s.ExposeCollective(cfg.perRank * bucketSz)
	if err != nil {
		return nil, err
	}
	m := &Map{
		s:          s,
		p:          p,
		stripes:    tms[:cfg.servers],
		local:      local,
		perRank:    cfg.perRank,
		valSize:    cfg.valSize,
		bucketSz:   bucketSz,
		total:      total,
		failover:   cfg.failover,
		buf:        p.Alloc(bucketSz),
		val:        make([]byte, cfg.valSize),
		cmp:        make([]byte, cfg.valSize),
		contention: make([]stats.Counter, cfg.servers),
		lat:        new(stats.Histogram),
	}
	m.registerMetrics()
	return m, nil
}

// registerMetrics aliases the map's live counters into the session's
// telemetry registry when one is enabled. Duplicate names (a second map
// on the rank) keep their own cells unregistered — the handle accessors
// still see them.
func (m *Map) registerMetrics() {
	reg := m.s.Engine().Metrics()
	if reg == nil {
		return
	}
	_ = reg.Register("dht.gets", &m.gets)
	_ = reg.Register("dht.puts", &m.puts)
	_ = reg.Register("dht.deletes", &m.deletes)
	_ = reg.Register("dht.cas", &m.cases)
	_ = reg.Register("dht.misses", &m.misses)
	_ = reg.Register("dht.probe_steps", &m.probeSteps)
	_ = reg.Register("dht.lock_retries", &m.lockRetries)
	_ = reg.Register("dht.cas_races", &m.casRaces)
	_ = reg.Register("dht.failovers", &m.failovers)
	for i := range m.contention {
		_ = reg.Register(fmt.Sprintf("dht.contention.stripe.%d", i), &m.contention[i])
	}
	_ = reg.RegisterHistogram("latency.dht.request", m.lat)
}

// Local returns this rank's own stripe region (a zero Region on ranks
// beyond the server count).
func (m *Map) Local() rma.Region { return m.local }

// Servers returns the number of ranks the table is striped over.
func (m *Map) Servers() int { return len(m.stripes) }

// PerRank returns the buckets per server stripe.
func (m *Map) PerRank() int { return m.perRank }

// ValueSize returns the fixed value payload length.
func (m *Map) ValueSize() int { return m.valSize }

// Stats snapshots the handle's client-side counters.
func (m *Map) Stats() Stats {
	return Stats{
		Gets: m.gets.Value(), Puts: m.puts.Value(),
		Deletes: m.deletes.Value(), CASes: m.cases.Value(),
		Misses:     m.misses.Value(),
		ProbeSteps: m.probeSteps.Value(), LockRetries: m.lockRetries.Value(),
		CASRaces: m.casRaces.Value(), Failovers: m.failovers.Value(),
	}
}

// StripeContention returns this handle's per-stripe contention counts
// (lock retries plus lost bucket claims, attributed to the stripe they
// happened on).
func (m *Map) StripeContention() []int64 {
	out := make([]int64, len(m.contention))
	for i := range m.contention {
		out[i] = m.contention[i].Value()
	}
	return out
}

// Latency returns the handle's request-latency histogram (virtual-time
// nanoseconds per public operation). The same histogram is registered as
// latency.dht.request when the session has metrics enabled.
func (m *Map) Latency() *stats.Histogram { return m.lat }

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64->64 hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (m *Map) home(key int64) int {
	return int(splitmix64(uint64(key)) % uint64(m.total))
}

// locate maps a global bucket index to (stripe, byte offset).
func (m *Map) locate(idx int) (int, int) {
	return idx / m.perRank, (idx % m.perRank) * m.bucketSz
}

func pack(version int64, state int64) int64 { return version<<2 | state }
func wordState(w int64) int64               { return w & 3 }
func wordVersion(w int64) int64             { return w >> 2 }

// bucket is one snapshot of a bucket: where it lives and the word and key
// it held. Its value bytes stay behind in the map's scratch buffer.
type bucket struct {
	idx, sr, off int
	word, key    int64
}

// holds reports whether the snapshot is a live entry for key.
func (b bucket) holds(key int64) bool {
	return wordState(b.word) == stateFull && b.key == key
}

// next is the word of b's one transition to state: every transition bumps
// the version exactly once.
func (b bucket) next(state int64) int64 { return pack(wordVersion(b.word)+1, state) }

// failing wraps one remote primitive with the failover retry: when the
// stripe owner is declared dead and failover is armed, wait for the spare
// rebuild, retarget the stripe, and run the primitive once more. It
// reports whether that retry ran — CompareSwap callers need to know,
// because the first attempt may have been applied and replicated before
// the response was lost.
func (m *Map) failing(sr int, f func() error) (retried bool, err error) {
	err = f()
	if err == nil || !m.failover || !errors.Is(err, rma.ErrRankFailed) {
		return false, err
	}
	succ, rerr := m.s.AwaitRebuilt(m.stripes[sr].Owner)
	if rerr != nil {
		return false, err
	}
	m.stripes[sr].Owner = succ
	m.failovers.Inc()
	return true, f()
}

// read snapshots bucket idx in one blocking Get — word, key and value land
// atomically with respect to target-side applies — and re-reads, backing
// off, while a writer holds the bucket locked. Words and keys are stored
// in the stripe owner's byte order.
func (m *Map) read(idx int) (b bucket, err error) {
	b.idx = idx
	b.sr, b.off = m.locate(idx)
	tm := &m.stripes[b.sr]
	for attempt := 0; ; attempt++ {
		if _, err = m.failing(b.sr, func() error {
			_, e := m.s.Get(m.buf, m.bucketSz, rma.Byte, *tm, b.off, rma.WithBlocking())
			return e
		}); err != nil {
			return b, err
		}
		var raw [valOff]byte
		if err = m.p.Mem().LocalRead(m.buf.Offset, raw[:]); err != nil {
			return b, err
		}
		b.word, b.key = int64(tm.Order.Uint64(raw[wordOff:])), int64(tm.Order.Uint64(raw[keyOff:]))
		if wordState(b.word) != stateLocked {
			return b, nil
		}
		m.lockRetries.Inc()
		m.contention[b.sr].Inc()
		m.backoff(attempt)
	}
}

// seek walks key's probe chain from step from, stopping at the bucket that
// holds key or at an empty bucket, the chain's end. It returns that bucket
// (the last one read when the walk covered the whole table), its step,
// and the snapshot of the first tombstone passed (idx -1 for none). Each
// bucket past from counts one probe step.
func (m *Map) seek(key int64, from int) (b bucket, step int, tomb bucket, err error) {
	h := m.home(key)
	tomb.idx = -1
	for step = from; step < m.total; step++ {
		if step > from {
			m.probeSteps.Inc()
		}
		if b, err = m.read((h + step) % m.total); err != nil {
			return b, step, tomb, err
		}
		switch st := wordState(b.word); {
		case st == stateEmpty || b.holds(key):
			return b, step, tomb, nil
		case st == stateTomb && tomb.idx < 0:
			tomb = b
		}
	}
	return b, step, tomb, nil
}

// swap CompareSwaps b's word from its snapshot to next, reporting whether
// this handle made the transition. After a failover retry, finding next
// already installed also counts: the first attempt reached the dying
// owner and was replicated before the response was lost — treating it as
// a lost race would leave a claimer spinning forever on its own lock. (A
// racer's identical transition in that window is indistinguishable;
// recovery stays sound because each key has a single writer while a
// stripe fails over, which the tests arrange.)
func (m *Map) swap(b bucket, next int64) (bool, error) {
	var old int64
	retried, err := m.failing(b.sr, func() error {
		var e error
		old, e = m.s.CompareSwap(m.stripes[b.sr], b.off+wordOff, b.word, next)
		return e
	})
	if err != nil {
		return false, err
	}
	if old == b.word || (retried && old == next) {
		return true, nil
	}
	m.lost(b.sr)
	return false, nil
}

// lost counts a bucket transition lost to a racer on stripe sr.
func (m *Map) lost(sr int) {
	m.casRaces.Inc()
	m.contention[sr].Inc()
}

// finish completes a mutation of b, which this handle has claimed: it puts
// value — after key, when b did not already hold key — and then the word
// full at version+2. The puts carry Ordering so the unlock word can never
// overtake the value bytes, and the single Complete makes the transition
// durable (with replication: buddy-acknowledged) before returning. They
// are blocking and not remote-complete, so each is done at its send and
// takes no request; their notifications let the Complete wait on the
// owner's delivery counter instead of probing.
func (m *Map) finish(b bucket, key int64, value []byte) error {
	tm := &m.stripes[b.sr]
	from := valOff
	var w [8]byte
	if !b.holds(key) {
		from = keyOff
		tm.Order.PutUint64(w[:], uint64(key))
		m.p.WriteLocal(m.buf, keyOff, w[:])
	}
	m.p.WriteLocal(m.buf, valOff, value)
	tm.Order.PutUint64(w[:], uint64(pack(wordVersion(b.word)+2, stateFull)))
	m.p.WriteLocal(m.buf, wordOff, w[:])
	payload := rma.Region{Offset: m.buf.Offset + from, Size: m.bucketSz - from}
	unlock := rma.Region{Offset: m.buf.Offset + wordOff, Size: 8}
	_, err := m.failing(b.sr, func() error {
		if _, err := m.s.Put(payload, payload.Size, rma.Byte, *tm, b.off+from,
			rma.WithOrdering(), rma.WithNotify(), rma.WithBlocking()); err != nil {
			return err
		}
		if _, err := m.s.Put(unlock, 8, rma.Byte, *tm, b.off+wordOff,
			rma.WithOrdering(), rma.WithNotify(), rma.WithBlocking()); err != nil {
			return err
		}
		return m.s.Complete(tm.Owner)
	})
	return err
}

// backoff yields a little virtual time before re-reading a contended
// bucket, so retry storms cost model time instead of spinning for free,
// and yields the host core: the writer it waits for needs it to finish.
func (m *Map) backoff(attempt int) {
	d := vtime.Duration(50 * (1 << min(attempt, 6)))
	m.p.Advance(d)
	gort.Gosched()
}

func (m *Map) observe(start vtime.Time) {
	m.lat.Observe(int64(m.p.Now() - start))
}

// Get returns the value stored under key, or ok=false when absent. The
// value is a slice of the handle's own buffer, valid until the handle's
// next call, which overwrites it: a caller that keeps a value copies it.
// It may be passed back to CAS as expect, or to Put or CAS as the new
// value.
func (m *Map) Get(key int64) ([]byte, bool, error) {
	start := m.p.Now()
	defer m.observe(start)
	m.gets.Inc()
	b, _, _, err := m.seek(key, 0)
	if err != nil {
		return nil, false, err
	}
	if !b.holds(key) {
		m.misses.Inc()
		return nil, false, nil
	}
	if err := m.p.Mem().LocalRead(m.buf.Offset+valOff, m.val); err != nil {
		return nil, false, err
	}
	return m.val, true, nil
}

// Put stores value (exactly ValueSize bytes) under key, inserting or
// overwriting. An overwrite moves the key's bucket full(v) -> locked(v+1)
// -> full(v+2); an insert claims the earliest tombstone on the key's
// chain, else the empty bucket that ends it, the same way.
func (m *Map) Put(key int64, value []byte) error {
	if len(value) != m.valSize {
		return fmt.Errorf("dht: value is %d bytes, table stores %d: %w", len(value), m.valSize, rma.ErrType)
	}
	start := m.p.Now()
	defer m.observe(start)
	m.puts.Inc()
	for {
		b, _, tomb, err := m.seek(key, 0)
		if err != nil {
			return err
		}
		// Insert into the first tombstone passed, else the empty bucket
		// that ended the chain, claiming it from seek's snapshot: a racer
		// that changed it since fails the claim below.
		if !b.holds(key) {
			if tomb.idx >= 0 {
				b = tomb
			} else if wordState(b.word) != stateEmpty {
				return fmt.Errorf("dht: put %d: %w", key, ErrTableFull)
			}
		}
		claimed, err := m.swap(b, b.next(stateLocked))
		if err != nil {
			return err
		}
		if claimed {
			return m.finish(b, key, value)
		}
		// Lost the claim: restart the probe from the home slot — the
		// winner may have been inserting the same key.
	}
}

// Delete removes key, reporting whether it was present. The bucket
// becomes a tombstone in one transition, full(v) -> tombstone(v+1), with
// no lock phase: the key and value bytes stay behind but are unreachable,
// probe chains through the bucket stay intact, and any concurrent CAS on
// version v correctly fails.
func (m *Map) Delete(key int64) (bool, error) {
	start := m.p.Now()
	defer m.observe(start)
	m.deletes.Inc()
	for attempt, from := 0, 0; ; attempt++ {
		b, step, _, err := m.seek(key, from)
		if err != nil || !b.holds(key) {
			return false, err
		}
		if hit, err := m.swap(b, b.next(stateTomb)); err != nil || hit {
			return hit, err
		}
		// Lost to a concurrent writer: re-examine the same bucket.
		m.backoff(attempt)
		from = step
	}
}

// CAS atomically replaces the value under key with newVal iff the current
// value equals expect (both exactly ValueSize bytes). It returns whether
// the swap happened; (false, nil) also covers an absent key.
func (m *Map) CAS(key int64, expect, newVal []byte) (bool, error) {
	if len(expect) != m.valSize || len(newVal) != m.valSize {
		return false, fmt.Errorf("dht: CAS values are %d/%d bytes, table stores %d: %w", len(expect), len(newVal), m.valSize, rma.ErrType)
	}
	start := m.p.Now()
	defer m.observe(start)
	m.cases.Inc()
	for attempt, from := 0, 0; ; attempt++ {
		b, step, _, err := m.seek(key, from)
		if err != nil || !b.holds(key) {
			return false, err
		}
		if err := m.p.Mem().LocalRead(m.buf.Offset+valOff, m.cmp); err != nil {
			return false, err
		}
		if !bytes.Equal(m.cmp, expect) {
			return false, nil
		}
		// The claim succeeding at version v proves the snapshot (taken at
		// v) is still the live value: every transition bumps the version.
		claimed, err := m.swap(b, b.next(stateLocked))
		if err != nil {
			return false, err
		}
		if claimed {
			err = m.finish(b, key, newVal)
			return err == nil, err
		}
		// Lost to a concurrent writer: re-examine the same bucket.
		m.backoff(attempt)
		from = step
	}
}
