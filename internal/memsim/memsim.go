// Package memsim simulates the memory system of one rank.
//
// The paper (Section III-B) distinguishes cache-coherent targets (Cray XT,
// most Top-500 systems) from non-cache-coherent ones (NEC SX series, whose
// scalar units use a write-through cache that is *not* kept coherent with
// writes performed by other processors or by the network). On such systems
// a remote write lands in main memory while the target's scalar cache may
// keep serving a stale copy until the target executes a memory fence or
// invalidates the affected lines — which is exactly why MPI-2's RMA design
// required target involvement, and why the strawman interface must cost
// target-side work on these machines.
//
// Memory models exactly that: a byte store plus, in the non-coherent
// configuration, a per-rank write-through scalar cache with explicit
// Fence/Invalidate operations and stale-read accounting.
//
// The store is backed only up to the highest offset ever touched. Config.Size
// is the bound every access is checked against, not what a Memory costs: New
// backs nothing, and an access past the backed length first grows the one
// contiguous slice (geometrically, copying the old bytes) under the lock.
// Bytes never touched read as zero. Regions come from a bump allocator that
// starts at 0, so the backed length is, in practice, the bytes allocated.
//
// All remote access in this repository goes through the Remote* methods
// (the simulated NIC path); rank-local code uses LocalRead/LocalWrite (the
// simulated scalar unit). Nothing else touches the byte store, so the
// coherence semantics are honest.
//
// One lock guards a Memory. Every remote access at a rank already runs
// under its NIC's delivery token, so the lock only orders the NIC against
// the owning rank's own loads and stores; a datatype landing
// (RemoteUnpack) takes it once for all of its runs, so a local reader sees
// a strided put either not at all or whole.
package memsim

import (
	"fmt"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/lockrank"
	"mpi3rma/internal/stats"
)

// Coherence selects the cache model for a rank's memory.
type Coherence int

const (
	// Coherent models a fully cache-coherent node: remote writes are
	// immediately visible to local reads (Cray XT-style).
	Coherent Coherence = iota
	// NonCoherentWriteThrough models an NEC SX-style scalar unit: local
	// accesses go through a write-through cache that remote writes do not
	// invalidate. Local reads may return stale data until Fence or
	// Invalidate is called.
	NonCoherentWriteThrough
)

// String returns the coherence model's name.
func (c Coherence) String() string {
	switch c {
	case Coherent:
		return "coherent"
	case NonCoherentWriteThrough:
		return "non-coherent-write-through"
	default:
		return fmt.Sprintf("Coherence(%d)", int(c))
	}
}

// DefaultCacheLine is the cache line size used when Config.CacheLine is 0.
const DefaultCacheLine = 64

// Config configures a Memory.
type Config struct {
	// Size is the size of the rank's memory in bytes: the bound on every
	// access and allocation. Only the bytes touched are ever backed.
	Size int
	// Coherence selects the cache model.
	Coherence Coherence
	// CacheLine is the cache line size in bytes for the non-coherent
	// model; 0 means DefaultCacheLine.
	CacheLine int
}

// cacheLine is one cached line of the scalar cache together with the memory
// version it was filled from, used to detect stale reads.
type cacheLine struct {
	data    []byte
	version uint64
}

// Memory is the memory system of one rank.
type Memory struct {
	cfg  Config
	line int

	// mu guards the byte store, the allocator and the non-coherent state,
	// under both models. It is the only lock: remote accesses arrive one
	// at a time under the rank's NIC delivery token, so striping the store
	// would buy no concurrency, only more lock cycles per landing.
	mu lockrank.Plain
	// data backs bytes [0, len(data)); the rest of [0, cfg.Size) has never
	// been touched and reads as zero. span grows it.
	data []byte
	// next allocation offset for Alloc.
	next int

	// Non-coherent model state: the scalar cache and a per-line version
	// counter bumped by every write to memory, so stale cache hits can be
	// detected and counted. version covers the backed lines and grows with
	// data.
	cache   map[int]*cacheLine
	version []uint64

	// Counters (all models).
	LocalReads   stats.Counter
	LocalWrites  stats.Counter
	RemoteReads  stats.Counter
	RemoteWrites stats.Counter
	StaleReads   stats.Counter // local reads served from a stale cache line
	Fences       stats.Counter
	Invalidates  stats.Counter // cache lines dropped by Fence/Invalidate
}

// New returns a Memory for the given configuration.
func New(cfg Config) *Memory {
	if cfg.Size <= 0 {
		panic("memsim: Config.Size must be positive")
	}
	if cfg.CacheLine == 0 {
		cfg.CacheLine = DefaultCacheLine
	}
	if cfg.CacheLine < 1 {
		panic("memsim: Config.CacheLine must be positive")
	}
	m := &Memory{cfg: cfg, line: cfg.CacheLine}
	if cfg.Coherence == NonCoherentWriteThrough {
		m.cache = make(map[int]*cacheLine)
	}
	return m
}

// growStep is the granule the backed length grows in.
const growStep = 64 << 10

// span returns the n bytes at off, growing the backed store first if they
// reach past it. Caller holds m.mu and has bounds-checked the access.
func (m *Memory) span(off, n int) []byte {
	if off+n > len(m.data) {
		m.grow(off + n)
	}
	return m.data[off : off+n]
}

// grow backs the store to at least end bytes: at least double the current
// length, rounded up to whole growth steps and whole cache lines, capped at
// Config.Size. The old bytes are copied; the new ones are zero, as untouched
// memory reads. Caller holds m.mu.
func (m *Memory) grow(end int) {
	n := max(end, 2*len(m.data))
	n = roundUp(roundUp(n, growStep), m.line)
	n = min(n, m.cfg.Size)
	data := make([]byte, n)
	copy(data, m.data)
	m.data = data
	if m.cache != nil {
		version := make([]uint64, (n+m.line-1)/m.line)
		copy(version, m.version)
		m.version = version
	}
}

func roundUp(n, to int) int {
	return (n + to - 1) / to * to
}

// Size returns the memory's bound in bytes, not how many are backed.
func (m *Memory) Size() int { return m.cfg.Size }

// Coherence returns the configured coherence model.
func (m *Memory) Coherence() Coherence { return m.cfg.Coherence }

// Region identifies a contiguous range of a rank's memory. Regions are what
// target-memory objects describe; they carry no pointer to the Memory so
// they can be shipped between ranks as plain values.
type Region struct {
	Offset int
	Size   int
}

// End returns the offset one past the region's last byte.
func (r Region) End() int { return r.Offset + r.Size }

// Contains reports whether [off, off+n) lies within the region. It never
// computes off+n, so a huge off cannot wrap into range.
func (r Region) Contains(off, n int) bool {
	return off >= 0 && n >= 0 && n <= r.Size && off <= r.Size-n
}

// Overlaps reports whether the two regions share any byte.
func (r Region) Overlaps(o Region) bool {
	return r.Offset < o.End() && o.Offset < r.End()
}

// Alloc carves a fresh region of the given size out of the memory, or
// returns an error if the memory is exhausted. Allocation is a simple bump
// allocator: the paper's experiments never free memory.
func (m *Memory) Alloc(size int) (Region, error) {
	if size < 0 {
		return Region{}, fmt.Errorf("memsim: negative allocation size %d", size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if free := m.cfg.Size - m.next; size > free {
		return Region{}, fmt.Errorf("memsim: out of memory: want %d bytes, %d free", size, free)
	}
	r := Region{Offset: m.next, Size: size}
	m.next += size
	return r, nil
}

// MustAlloc is Alloc that panics on failure, for tests and examples.
func (m *Memory) MustAlloc(size int) Region {
	r, err := m.Alloc(size)
	if err != nil {
		panic(err)
	}
	return r
}

// check bounds [off, off+n) by Config.Size, which never changes, so it needs
// no lock; like Region.Contains it never computes off+n.
func (m *Memory) check(off, n int) error {
	if off < 0 || n < 0 || n > m.cfg.Size || off > m.cfg.Size-n {
		return fmt.Errorf("memsim: access of %d bytes at %d out of bounds (size %d)", n, off, m.cfg.Size)
	}
	return nil
}

// bumpVersions records a write to [off, off+n) for stale-read detection.
// Caller holds m.mu.
func (m *Memory) bumpVersions(off, n int) {
	if m.version == nil || n == 0 {
		return
	}
	first := off / m.line
	last := (off + n - 1) / m.line
	for l := first; l <= last; l++ {
		m.version[l]++
	}
}

// LocalWrite writes data at off as the rank's own scalar unit would.
// Under the non-coherent model the write goes through the write-through
// cache: both the cache line and memory are updated, so local writes are
// never stale for the local reader.
func (m *Memory) LocalWrite(off int, data []byte) error {
	if err := m.check(off, len(data)); err != nil {
		return err
	}
	m.LocalWrites.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(m.span(off, len(data)), data)
	m.bumpVersions(off, len(data))
	if m.cache != nil {
		m.refreshCacheLocked(off, len(data))
	}
	return nil
}

// LocalRead reads n bytes at off into buf as the rank's own scalar unit
// would. Under the non-coherent model the read is served line-by-line from
// the scalar cache, filling missing lines from memory; lines that are
// present but stale (memory was modified by a remote write after the line
// was cached) are served stale, and StaleReads is incremented — this is the
// hazard Fence/Invalidate exist to remove.
func (m *Memory) LocalRead(off int, buf []byte) error {
	if err := m.check(off, len(buf)); err != nil {
		return err
	}
	m.LocalReads.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.span(off, len(buf))
	if m.cache == nil {
		copy(buf, cur)
		return nil
	}
	m.readThroughCacheLocked(off, buf)
	return nil
}

// readThroughCacheLocked serves buf from the scalar cache. Caller holds
// m.mu and has backed the access.
func (m *Memory) readThroughCacheLocked(off int, buf []byte) {
	n := len(buf)
	pos := 0
	stale := false
	for pos < n {
		addr := off + pos
		l := addr / m.line
		lineStart := l * m.line
		lineEnd := lineStart + m.line
		if lineEnd > len(m.data) {
			lineEnd = len(m.data)
		}
		cl, ok := m.cache[l]
		if !ok {
			cl = &cacheLine{
				data:    append([]byte(nil), m.data[lineStart:lineEnd]...),
				version: m.version[l],
			}
			m.cache[l] = cl
		} else if cl.version != m.version[l] {
			stale = true
		}
		// Copy the in-line portion of the request from the cached copy.
		from := addr - lineStart
		take := lineEnd - addr
		if take > n-pos {
			take = n - pos
		}
		copy(buf[pos:pos+take], cl.data[from:from+take])
		pos += take
	}
	if stale {
		m.StaleReads.Inc()
	}
}

// refreshCacheLocked re-fills any cached lines covering [off, off+n) from
// memory (write-through behaviour for local writes). Caller holds m.mu.
func (m *Memory) refreshCacheLocked(off, n int) {
	if n == 0 {
		return
	}
	first := off / m.line
	last := (off + n - 1) / m.line
	for l := first; l <= last; l++ {
		if cl, ok := m.cache[l]; ok {
			lineStart := l * m.line
			lineEnd := lineStart + m.line
			if lineEnd > len(m.data) {
				lineEnd = len(m.data)
			}
			copy(cl.data, m.data[lineStart:lineEnd])
			cl.version = m.version[l]
		}
	}
}

// RemoteWrite writes data at off as the NIC would: directly into main
// memory, bypassing (and under the non-coherent model, *not* invalidating)
// the target's scalar cache.
func (m *Memory) RemoteWrite(off int, data []byte) error {
	if err := m.check(off, len(data)); err != nil {
		return err
	}
	m.RemoteWrites.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(m.span(off, len(data)), data)
	m.bumpVersions(off, len(data))
	return nil
}

// RemoteUnpack lands wire, the canonical bytes of count instances of dt,
// at off in the rank's byte order, as the NIC would: one bounds check over
// the layout's extent, one lock for all of its runs, and one RemoteWrites
// count. Only the runs are written, so holes keep their bytes and, under
// the non-coherent model, their lines' versions.
func (m *Memory) RemoteUnpack(off int, wire []byte, count int, dt datatype.Type, order datatype.ByteOrder) error {
	n := datatype.ExtentOf(count, dt)
	if err := m.check(off, n); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := datatype.Unpack(m.span(off, n), wire, count, dt, order); err != nil {
		return err
	}
	m.RemoteWrites.Inc()
	if m.version == nil {
		return nil
	}
	datatype.EachGroup(count, dt, func(g datatype.Group) {
		for at := off + g.Off; g.Blocks > 0; g.Blocks, at = g.Blocks-1, at+g.Step {
			m.bumpVersions(at, g.Bytes)
		}
	})
	return nil
}

// RemoteRead reads n bytes at off into buf as the NIC would: directly from
// main memory. (On the SX the vector unit likewise reads memory directly.)
func (m *Memory) RemoteRead(off int, buf []byte) error {
	if err := m.check(off, len(buf)); err != nil {
		return err
	}
	m.RemoteReads.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(buf, m.span(off, len(buf)))
	return nil
}

// Update applies fn to the n bytes at off under the memory lock, reading
// and writing main memory directly. It is the primitive accumulate and
// read-modify-write operations use: the mutation is atomic with respect to
// every other access to this Memory.
func (m *Memory) Update(off, n int, fn func(cur []byte)) error {
	if err := m.check(off, n); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fn(m.span(off, n))
	m.bumpVersions(off, n)
	return nil
}

// Fence models the SX memory fence: it ensures all previous accesses are
// visible by discarding the entire scalar cache. On a coherent memory it is
// a no-op. It returns the number of cache lines invalidated.
func (m *Memory) Fence() int {
	m.Fences.Inc()
	if m.cache == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.cache)
	for l := range m.cache {
		delete(m.cache, l)
	}
	m.Invalidates.Add(int64(n))
	return n
}

// Invalidate drops any cached lines covering [off, off+n), making
// subsequent local reads of that range see main memory. It returns the
// number of lines dropped. On a coherent memory it is a no-op.
func (m *Memory) Invalidate(off, n int) int {
	if m.cache == nil || n <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	first := off / m.line
	last := (off + n - 1) / m.line
	dropped := 0
	for l := first; l <= last; l++ {
		if _, ok := m.cache[l]; ok {
			delete(m.cache, l)
			dropped++
		}
	}
	m.Invalidates.Add(int64(dropped))
	return dropped
}

// CachedLines returns how many lines the scalar cache currently holds
// (always 0 for the coherent model).
func (m *Memory) CachedLines() int {
	if m.cache == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}

// View runs fn on the n bytes at off in main memory, under the memory lock
// and without copying them: the read half of Update, for a caller that
// packs or sends what it sees. It bypasses all cache modelling and counts
// nothing. fn must neither keep cur nor write to it.
func (m *Memory) View(off, n int, fn func(cur []byte)) error {
	if err := m.check(off, n); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fn(m.span(off, n))
	return nil
}

// RemoteView is View as the NIC reads: a range that checks out counts in
// RemoteReads, like RemoteRead's.
func (m *Memory) RemoteView(off, n int, fn func(cur []byte)) error {
	if err := m.check(off, n); err != nil {
		return err
	}
	m.RemoteReads.Inc()
	return m.View(off, n, fn)
}

// Snapshot returns a copy of the n bytes at off read directly from main
// memory, bypassing all cache modelling. It is intended for test
// verification only.
func (m *Memory) Snapshot(off, n int) (out []byte) {
	if err := m.View(off, n, func(cur []byte) { out = append(out, cur...) }); err != nil {
		panic(err)
	}
	return out
}
