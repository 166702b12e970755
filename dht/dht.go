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
// Zeroed memory is an empty table. Keys hash with splitmix64 and probe
// linearly through the global index space, wrapping across stripes, so a
// nearly-full stripe spills onto the next rank instead of failing.
//
// Protocol. Readers issue one blocking Get of the whole bucket: target
// applies are per-operation atomic, so the snapshot is consistent — a
// full word means the value bytes belong to that version, a locked word
// means a writer is mid-update and the reader retries. Writers claim a
// bucket by CompareSwap on the word (empty/tombstone/full -> locked,
// version+1), stream key and value with ordered puts, and unlock by
// putting full with version+2; the ordered unlock cannot overtake the
// value bytes, and one Complete per mutation makes the whole transition
// durable before the call returns. Every successful transition increments
// the version exactly once, so a CompareSwap on a full word at version v
// proves the value bytes are still the ones snapshotted at v — the basis
// of Map.CAS. Retries never touch the word, which keeps converged table
// bytes independent of contention interleavings (the chaos tests compare
// stripes byte-exact against a fault-free run).
//
// All table traffic rides the session it was opened on: batching,
// sharding, events and buddy replication all apply, and so does the
// world's fault plan (runtime.Config.Faults). With
// WithFailover a map whose stripe owner is declared dead (ErrRankFailed)
// waits for the spare rebuild and retries against the successor.
package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	gort "runtime"

	"mpi3rma/internal/datatype"
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
	order   datatype.ByteOrder
	stripes []rma.TargetMem
	local   rma.Region // this rank's stripe (zero Region on pure clients)

	perRank  int
	valSize  int
	bucketSz int
	total    int // buckets in the table, and the probe's bound
	failover bool

	buf  rma.Region // bucket-sized scratch: snapshot gets
	kv   rma.Region // key+value scratch: insert payload
	word rma.Region // 8-byte scratch: unlock puts

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
		order:      p.ByteOrder(),
		stripes:    tms[:cfg.servers],
		local:      local,
		perRank:    cfg.perRank,
		valSize:    cfg.valSize,
		bucketSz:   bucketSz,
		total:      total,
		failover:   cfg.failover,
		buf:        p.Alloc(bucketSz),
		kv:         p.Alloc(8 + cfg.valSize),
		word:       p.Alloc(8),
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

func (m *Map) enc64(b []byte, v uint64) {
	if m.order == datatype.BigEndian {
		binary.BigEndian.PutUint64(b, v)
	} else {
		binary.LittleEndian.PutUint64(b, v)
	}
}

func (m *Map) dec64(b []byte) uint64 {
	if m.order == datatype.BigEndian {
		return binary.BigEndian.Uint64(b)
	}
	return binary.LittleEndian.Uint64(b)
}

func pack(version int64, state int64) int64 { return version<<2 | state }
func wordState(w int64) int64               { return w & 3 }
func wordVersion(w int64) int64             { return w >> 2 }

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

// snapshot reads bucket (sr, off) in one blocking Get: word, key and
// value land atomically with respect to target-side applies.
func (m *Map) snapshot(sr, off int) (word, key int64, err error) {
	_, err = m.failing(sr, func() error {
		_, e := m.s.Get(m.buf, m.bucketSz, rma.Byte, m.stripes[sr], off, rma.WithBlocking())
		return e
	})
	if err != nil {
		return 0, 0, err
	}
	raw := m.p.ReadLocal(m.buf, 0, valOff)
	return int64(m.dec64(raw[wordOff:])), int64(m.dec64(raw[keyOff:])), nil
}

// claim CompareSwaps the bucket word from observed to locked(version+1),
// reporting whether this handle now holds the claim. After a failover
// retry, finding the locked word already installed also counts: the first
// attempt reached the dying owner and was replicated before the response
// was lost — treating it as a lost race would leave the claimer spinning
// forever on its own lock. (A racer's identical claim in that window is
// indistinguishable; recovery stays sound because each key has a single
// writer while a stripe fails over, which the tests arrange.)
func (m *Map) claim(sr, off int, observed int64) (claimed bool, err error) {
	locked := pack(wordVersion(observed)+1, stateLocked)
	var old int64
	retried, err := m.failing(sr, func() error {
		var e error
		old, e = m.s.CompareSwap(m.stripes[sr], off+wordOff, observed, locked)
		return e
	})
	if err != nil {
		return false, err
	}
	return old == observed || (retried && old == locked), nil
}

// finish streams the payload puts of a mutation and unlocks the bucket.
// The puts carry Ordering so the unlock word can never overtake the
// value bytes, and the single Complete makes the transition durable (with
// replication: buddy-acknowledged) before returning.
func (m *Map) finish(sr, off int, payload rma.Region, n, payloadOff int, unlock int64) error {
	_, err := m.failing(sr, func() error {
		if n > 0 {
			if _, err := m.s.Put(payload, n, rma.Byte, m.stripes[sr], off+payloadOff,
				rma.WithOrdering(), rma.WithNotify()); err != nil {
				return err
			}
		}
		wb := make([]byte, 8)
		m.enc64(wb, uint64(unlock))
		m.p.WriteLocal(m.word, 0, wb)
		if _, err := m.s.Put(m.word, 8, rma.Byte, m.stripes[sr], off+wordOff,
			rma.WithOrdering(), rma.WithNotify()); err != nil {
			return err
		}
		return m.s.Complete(m.stripes[sr].Owner)
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

// Get returns the value stored under key, or ok=false when absent.
func (m *Map) Get(key int64) ([]byte, bool, error) {
	start := m.p.Now()
	defer m.observe(start)
	m.gets.Inc()
	h := m.home(key)
	for i := 0; i < m.total; i++ {
		idx := (h + i) % m.total
		sr, off := m.locate(idx)
		if i > 0 {
			m.probeSteps.Inc()
		}
		for attempt := 0; ; attempt++ {
			w, k, err := m.snapshot(sr, off)
			if err != nil {
				return nil, false, err
			}
			switch wordState(w) {
			case stateEmpty:
				// The chain terminator: the key is nowhere.
				m.misses.Inc()
				return nil, false, nil
			case stateLocked:
				m.lockRetries.Inc()
				m.contention[sr].Inc()
				m.backoff(attempt)
				continue
			case stateFull:
				if k == key {
					val := append([]byte(nil), m.p.ReadLocal(m.buf, valOff, m.valSize)...)
					return val, true, nil
				}
			}
			break // full with another key, or tombstone: probe on
		}
	}
	m.misses.Inc()
	return nil, false, nil
}

// Put stores value (exactly ValueSize bytes) under key, inserting or
// overwriting.
func (m *Map) Put(key int64, value []byte) error {
	if len(value) != m.valSize {
		return fmt.Errorf("dht: value is %d bytes, table stores %d: %w", len(value), m.valSize, rma.ErrType)
	}
	start := m.p.Now()
	defer m.observe(start)
	m.puts.Inc()
	for {
		done, err := m.tryPut(key, value)
		if err != nil || done {
			return err
		}
		// Lost the claim race: restart the probe from the home slot — the
		// winner may have been inserting the same key.
	}
}

// tryPut runs one probe-and-claim pass. done=false means a lost race and
// the caller restarts.
func (m *Map) tryPut(key int64, value []byte) (done bool, err error) {
	h := m.home(key)
	firstFree := -1 // earliest reusable (tombstone) slot seen on the way
	for i := 0; i < m.total; i++ {
		idx := (h + i) % m.total
		sr, off := m.locate(idx)
		if i > 0 {
			m.probeSteps.Inc()
		}
		for attempt := 0; ; attempt++ {
			w, k, err := m.snapshot(sr, off)
			if err != nil {
				return false, err
			}
			switch wordState(w) {
			case stateLocked:
				m.lockRetries.Inc()
				m.contention[sr].Inc()
				m.backoff(attempt)
				continue
			case stateFull:
				if k != key {
					// occupied by another key: probe on
				} else {
					// Update in place: full(v) -> locked(v+1) -> full(v+2).
					claimed, err := m.claim(sr, off, w)
					if err != nil {
						return false, err
					}
					if !claimed {
						m.casRaces.Inc()
						m.contention[sr].Inc()
						return false, nil
					}
					m.p.WriteLocal(m.kv, 0, value)
					return true, m.finish(sr, off, m.kv, m.valSize, valOff, pack(wordVersion(w)+2, stateFull))
				}
			case stateTomb:
				if firstFree < 0 {
					firstFree = idx
				}
			case stateEmpty:
				// Chain terminator: the key is absent. Insert at the
				// earliest tombstone if one was passed, else here.
				at := idx
				if firstFree >= 0 {
					at = firstFree
				}
				return m.insertAt(at, key, value)
			}
			break
		}
	}
	if firstFree >= 0 {
		return m.insertAt(firstFree, key, value)
	}
	return true, fmt.Errorf("dht: put %d: %w", key, ErrTableFull)
}

// insertAt claims the (empty or tombstone) bucket at idx and writes
// key+value. done=false on a lost race.
func (m *Map) insertAt(idx int, key int64, value []byte) (done bool, err error) {
	sr, off := m.locate(idx)
	for attempt := 0; ; attempt++ {
		w, _, err := m.snapshot(sr, off)
		if err != nil {
			return false, err
		}
		st := wordState(w)
		if st == stateLocked {
			m.lockRetries.Inc()
			m.contention[sr].Inc()
			m.backoff(attempt)
			continue
		}
		if st == stateFull {
			// A racer filled our slot (possibly with our key): restart.
			m.casRaces.Inc()
			m.contention[sr].Inc()
			return false, nil
		}
		claimed, err := m.claim(sr, off, w)
		if err != nil {
			return false, err
		}
		if !claimed {
			m.casRaces.Inc()
			m.contention[sr].Inc()
			return false, nil
		}
		kb := make([]byte, 8+m.valSize)
		m.enc64(kb[:8], uint64(key))
		copy(kb[8:], value)
		m.p.WriteLocal(m.kv, 0, kb)
		return true, m.finish(sr, off, m.kv, 8+m.valSize, keyOff, pack(wordVersion(w)+2, stateFull))
	}
}

// Delete removes key, reporting whether it was present. The bucket
// becomes a tombstone: probe chains through it stay intact.
func (m *Map) Delete(key int64) (bool, error) {
	start := m.p.Now()
	defer m.observe(start)
	m.deletes.Inc()
	h := m.home(key)
	for i := 0; i < m.total; i++ {
		idx := (h + i) % m.total
		sr, off := m.locate(idx)
		if i > 0 {
			m.probeSteps.Inc()
		}
		for attempt := 0; ; attempt++ {
			w, k, err := m.snapshot(sr, off)
			if err != nil {
				return false, err
			}
			switch wordState(w) {
			case stateEmpty:
				return false, nil
			case stateLocked:
				m.lockRetries.Inc()
				m.contention[sr].Inc()
				m.backoff(attempt)
				continue
			case stateFull:
				if k == key {
					// One transition: full(v) -> tombstone(v+1), no lock
					// phase — the key and value bytes stay behind but are
					// unreachable, and any concurrent CAS on version v
					// correctly fails.
					hit, err := m.tombstone(sr, off, w)
					if err != nil {
						return false, err
					}
					if !hit {
						// Lost to a concurrent writer: re-examine.
						m.casRaces.Inc()
						m.contention[sr].Inc()
						m.backoff(attempt)
						continue
					}
					return true, nil
				}
			}
			break
		}
	}
	return false, nil
}

// tombstone CompareSwaps full(v) -> tombstone(v+1) directly, reporting
// whether the transition landed. Like claim, a failover retry that finds
// the tombstone already installed owns it — the first attempt was
// replicated before the response was lost.
func (m *Map) tombstone(sr, off int, observed int64) (bool, error) {
	tomb := pack(wordVersion(observed)+1, stateTomb)
	var old int64
	retried, err := m.failing(sr, func() error {
		var e error
		old, e = m.s.CompareSwap(m.stripes[sr], off+wordOff, observed, tomb)
		return e
	})
	if err != nil {
		return false, err
	}
	return old == observed || (retried && old == tomb), nil
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
	h := m.home(key)
	for i := 0; i < m.total; i++ {
		idx := (h + i) % m.total
		sr, off := m.locate(idx)
		if i > 0 {
			m.probeSteps.Inc()
		}
		for attempt := 0; ; attempt++ {
			w, k, err := m.snapshot(sr, off)
			if err != nil {
				return false, err
			}
			switch wordState(w) {
			case stateEmpty:
				return false, nil
			case stateLocked:
				m.lockRetries.Inc()
				m.contention[sr].Inc()
				m.backoff(attempt)
				continue
			case stateFull:
				if k != key {
					break
				}
				cur := m.p.ReadLocal(m.buf, valOff, m.valSize)
				if !bytesEqual(cur, expect) {
					return false, nil
				}
				// The claim succeeding at version v proves the snapshot
				// (taken at v) is still the live value: every transition
				// bumps the version.
				claimed, err := m.claim(sr, off, w)
				if err != nil {
					return false, err
				}
				if !claimed {
					m.casRaces.Inc()
					m.contention[sr].Inc()
					m.backoff(attempt)
					continue
				}
				m.p.WriteLocal(m.kv, 0, newVal)
				if err := m.finish(sr, off, m.kv, m.valSize, valOff, pack(wordVersion(w)+2, stateFull)); err != nil {
					return false, err
				}
				return true, nil
			}
			break
		}
	}
	return false, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
