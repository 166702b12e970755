package memsim

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mpi3rma/internal/datatype"
)

func coherentMem(size int) *Memory {
	return New(Config{Size: size})
}

func sxMem(size, line int) *Memory {
	return New(Config{Size: size, Coherence: NonCoherentWriteThrough, CacheLine: line})
}

func TestAllocBump(t *testing.T) {
	m := coherentMem(100)
	a, err := m.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(60)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offset != 0 || a.Size != 40 || b.Offset != 40 || b.Size != 60 {
		t.Fatalf("regions %+v %+v", a, b)
	}
	if _, err := m.Alloc(1); err == nil {
		t.Fatal("allocation beyond capacity should fail")
	}
	if _, err := m.Alloc(-1); err == nil {
		t.Fatal("negative allocation should fail")
	}
}

func TestBoundsChecks(t *testing.T) {
	m := coherentMem(16)
	if err := m.LocalWrite(10, make([]byte, 10)); err == nil {
		t.Error("out-of-bounds local write should fail")
	}
	if err := m.RemoteWrite(-1, make([]byte, 2)); err == nil {
		t.Error("negative-offset remote write should fail")
	}
	if err := m.LocalRead(16, make([]byte, 1)); err == nil {
		t.Error("out-of-bounds read should fail")
	}
	if err := m.Update(12, 8, func([]byte) {}); err == nil {
		t.Error("out-of-bounds update should fail")
	}
}

// TestViewCounting: View is uncounted, RemoteView counts as RemoteRead
// does — a remote read per range that checks out, none for a rejected one.
func TestViewCounting(t *testing.T) {
	m := coherentMem(16)
	if err := m.RemoteWrite(4, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	see := func(cur []byte) { got = append(got[:0], cur...) }
	if err := m.View(4, 3, see); err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("View saw %v, %v", got, err)
	}
	if n := m.RemoteReads.Value(); n != 0 {
		t.Errorf("View counted %d remote reads", n)
	}
	if err := m.RemoteView(4, 3, see); err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("RemoteView saw %v, %v", got, err)
	}
	if err := m.RemoteView(12, 8, see); err == nil {
		t.Error("out-of-bounds remote view should fail")
	}
	if n := m.RemoteReads.Value(); n != 1 {
		t.Errorf("one good and one rejected RemoteView counted %d remote reads, want 1", n)
	}
}

// TestRemoteUnpack pins a datatype landing as one memory write: it leaves
// what Unpack leaves on a copy of the memory, so holes keep their bytes,
// counts one RemoteWrite, and under the non-coherent model bumps the
// version of exactly the cache lines a run touches. A wire of the wrong
// size or a layout past the end is rejected and counts nothing.
func TestRemoteUnpack(t *testing.T) {
	// Two instances of [int64, 40-byte hole, int64] placed at 8 put runs at
	// [8,16), [56,64), [64,72) and [112,120): 16-byte lines 0, 3, 4 and 7.
	vec := datatype.Vector(2, 1, 6, datatype.Int64)
	const at, count = 8, 2
	touched := map[int]bool{0: true, 3: true, 4: true, 7: true}
	wire := make([]byte, datatype.PackedSize(count, vec))
	for i := range wire {
		wire[i] = byte(i + 1)
	}
	for _, order := range []datatype.ByteOrder{datatype.LittleEndian, datatype.BigEndian} {
		for _, m := range []*Memory{coherentMem(128), sxMem(128, 16)} {
			name := order.String() + " " + m.Coherence().String()
			if err := m.LocalWrite(0, bytes.Repeat([]byte{0xEE}, 128)); err != nil {
				t.Fatal(err)
			}
			want := m.Snapshot(0, 128)
			if err := datatype.Unpack(want[at:], wire, count, vec, order); err != nil {
				t.Fatal(err)
			}
			versions := append([]uint64(nil), m.version...)
			if err := m.RemoteUnpack(at, wire, count, vec, order); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := m.Snapshot(0, 128)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: memory %x, want %x", name, got, want)
			}
			if holes := bytes.Count(got, []byte{0xEE}); holes != 128-len(wire) {
				t.Errorf("%s: %d bytes kept their value, want the %d outside the runs", name, holes, 128-len(wire))
			}
			if n := m.RemoteWrites.Value(); n != 1 {
				t.Errorf("%s: one landing counted %d remote writes", name, n)
			}
			for l := range versions {
				if bumped := m.version[l] != versions[l]; bumped != touched[l] {
					t.Errorf("%s: line %d version bumped = %v, want %v", name, l, bumped, touched[l])
				}
			}
			if err := m.RemoteUnpack(at, wire[1:], count, vec, order); err == nil {
				t.Errorf("%s: a short wire should fail", name)
			}
			if err := m.RemoteUnpack(128-vec.Extent(), wire, count, vec, order); err == nil {
				t.Errorf("%s: a layout past the end should fail", name)
			}
			if n := m.RemoteWrites.Value(); n != 1 {
				t.Errorf("%s: rejected landings counted %d remote writes in all, want 1", name, n-1)
			}
		}
	}
}

func TestCoherentRemoteVisibleLocally(t *testing.T) {
	m := coherentMem(64)
	if err := m.RemoteWrite(0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := m.LocalRead(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
		t.Fatalf("coherent local read = %v", buf)
	}
	if m.StaleReads.Value() != 0 {
		t.Fatal("coherent memory should never report stale reads")
	}
}

// TestNonCoherentStaleRead is the Section III-B2 hazard: a cached line is
// NOT invalidated by a remote write, so the local reader sees stale data
// until Fence or Invalidate.
func TestNonCoherentStaleRead(t *testing.T) {
	m := sxMem(128, 16)
	if err := m.LocalWrite(0, bytes.Repeat([]byte{7}, 16)); err != nil {
		t.Fatal(err)
	}
	// Prime the cache.
	buf := make([]byte, 16)
	if err := m.LocalRead(0, buf); err != nil {
		t.Fatal(err)
	}
	// Remote write bypasses the cache.
	if err := m.RemoteWrite(0, bytes.Repeat([]byte{9}, 16)); err != nil {
		t.Fatal(err)
	}
	if err := m.LocalRead(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatalf("read %d after remote write; expected the stale cached 7", buf[0])
	}
	if m.StaleReads.Value() == 0 {
		t.Fatal("stale read not counted")
	}
	// Fence invalidates; now the new data is visible.
	if n := m.Fence(); n == 0 {
		t.Fatal("fence should drop cached lines")
	}
	if err := m.LocalRead(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatalf("read %d after fence, want 9", buf[0])
	}
}

func TestNonCoherentInvalidateRange(t *testing.T) {
	m := sxMem(128, 16)
	// Prime two lines.
	buf := make([]byte, 32)
	if err := m.LocalRead(0, buf); err != nil {
		t.Fatal(err)
	}
	if m.CachedLines() != 2 {
		t.Fatalf("cached lines = %d, want 2", m.CachedLines())
	}
	if err := m.RemoteWrite(0, bytes.Repeat([]byte{5}, 32)); err != nil {
		t.Fatal(err)
	}
	// Invalidate only the first line: first line fresh, second stale.
	if n := m.Invalidate(0, 16); n != 1 {
		t.Fatalf("invalidated %d lines, want 1", n)
	}
	if err := m.LocalRead(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Errorf("invalidated line reads %d, want 5", buf[0])
	}
	if buf[16] != 0 {
		t.Errorf("non-invalidated line reads %d, want stale 0", buf[16])
	}
}

// TestNonCoherentLocalWriteThrough: local writes go through the cache, so
// the local writer always sees its own writes.
func TestNonCoherentLocalWriteThrough(t *testing.T) {
	m := sxMem(64, 16)
	buf := make([]byte, 8)
	if err := m.LocalRead(0, buf); err != nil { // prime
		t.Fatal(err)
	}
	if err := m.LocalWrite(0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := m.LocalRead(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Fatalf("own write invisible: read %d", buf[0])
	}
	// And memory has it too (write-through), visible to remote readers.
	rbuf := make([]byte, 1)
	if err := m.RemoteRead(0, rbuf); err != nil {
		t.Fatal(err)
	}
	if rbuf[0] != 42 {
		t.Fatalf("write-through missed memory: remote read %d", rbuf[0])
	}
}

func TestUpdateAtomicVisibility(t *testing.T) {
	m := coherentMem(8)
	if err := m.RemoteWrite(0, []byte{1, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	err := m.Update(0, 8, func(cur []byte) {
		cur[0]++
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(0, 1)[0]; got != 2 {
		t.Fatalf("update result %d, want 2", got)
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{Offset: 10, Size: 20}
	if r.End() != 30 {
		t.Errorf("End = %d", r.End())
	}
	if !r.Contains(0, 20) || r.Contains(1, 20) || r.Contains(-1, 2) {
		t.Error("Contains is wrong")
	}
	if !r.Overlaps(Region{Offset: 29, Size: 5}) || r.Overlaps(Region{Offset: 30, Size: 5}) {
		t.Error("Overlaps is wrong")
	}
}

// TestBoundsNeverWrap: every bounds check compares against the size
// without computing off+n, so an offset or length near math.MaxInt is out
// of range rather than wrapped into it.
func TestBoundsNeverWrap(t *testing.T) {
	r := Region{Offset: 8, Size: 16}
	for _, c := range []struct {
		off, n int
		want   bool
	}{
		{0, 16, true},
		{16, 0, true},
		{15, 1, true},
		{15, 2, false},
		{17, 0, false},
		{math.MaxInt, 2, false},
		{math.MaxInt, 0, false},
		{2, math.MaxInt, false},
		{math.MaxInt - 1, math.MaxInt, false},
		{-1, 1, false},
		{0, -1, false},
	} {
		if got := r.Contains(c.off, c.n); got != c.want {
			t.Errorf("Region%+v.Contains(%d, %d) = %v, want %v", r, c.off, c.n, got, c.want)
		}
	}

	m := coherentMem(100)
	noop := func([]byte) {}
	for _, c := range []struct{ off, n int }{
		{math.MaxInt, 2},
		{math.MaxInt - 1, 8},
		{2, math.MaxInt},
		{math.MaxInt, math.MaxInt},
	} {
		if err := m.View(c.off, c.n, noop); err == nil {
			t.Errorf("View(%d, %d) should be out of bounds", c.off, c.n)
		}
		if err := m.Update(c.off, c.n, noop); err == nil {
			t.Errorf("Update(%d, %d) should be out of bounds", c.off, c.n)
		}
	}
	if err := m.RemoteWrite(math.MaxInt, []byte{1}); err == nil {
		t.Error("RemoteWrite at math.MaxInt should be out of bounds")
	}
	if len(m.data) != 0 {
		t.Errorf("rejected accesses backed %d bytes", len(m.data))
	}

	m.MustAlloc(40)
	for _, size := range []int{math.MaxInt, math.MaxInt - 39, 61} {
		if _, err := m.Alloc(size); err == nil {
			t.Errorf("Alloc(%d) with 60 bytes free should fail", size)
		}
	}
	if reg, err := m.Alloc(60); err != nil || reg.Offset != 40 {
		t.Errorf("Alloc(60) with 60 bytes free = %+v, %v", reg, err)
	}
}

// TestStoreGrowsOnTouch pins the backing store: New backs nothing, an
// access grows it geometrically to cover the highest byte touched, content
// survives every growth, untouched bytes read as zero, and the last byte
// below Size is reachable while one more is not.
func TestStoreGrowsOnTouch(t *testing.T) {
	const size = 3*growStep + 5 // not a multiple of the growth step
	m := coherentMem(size)
	if len(m.data) != 0 {
		t.Fatalf("New backed %d bytes, want 0", len(m.data))
	}
	if m.Size() != size {
		t.Errorf("Size() = %d, want the bound %d", m.Size(), size)
	}

	zero := make([]byte, 32)
	got := make([]byte, 32)
	if err := m.RemoteRead(1000, got); err != nil || !bytes.Equal(got, zero) {
		t.Fatalf("untouched bytes read %x, %v; want zeros", got, err)
	}
	if len(m.data) != growStep {
		t.Errorf("a first touch backed %d bytes, want one %d-byte step", len(m.data), growStep)
	}

	pat := make([]byte, 100)
	for i := range pat {
		pat[i] = byte(i + 1)
	}
	if err := m.LocalWrite(10, pat); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoteWrite(growStep, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if len(m.data) != 2*growStep {
		t.Errorf("a touch one past the backed store backed %d bytes, want it doubled to %d", len(m.data), 2*growStep)
	}
	if got := m.Snapshot(10, len(pat)); !bytes.Equal(got, pat) {
		t.Errorf("content lost in growth: %x", got)
	}
	if got := m.Snapshot(growStep+1, 32); !bytes.Equal(got, zero) {
		t.Errorf("bytes grown but never written read %x, want zeros", got)
	}

	if err := m.Update(size-1, 1, func(cur []byte) { cur[0] = 7 }); err != nil {
		t.Fatalf("the last byte below Size: %v", err)
	}
	if len(m.data) != size {
		t.Errorf("a touch at Size-1 backed %d bytes, want the growth capped at Size %d", len(m.data), size)
	}
	if got := m.Snapshot(size-1, 1)[0]; got != 7 {
		t.Errorf("last byte = %d, want 7", got)
	}
	if got := m.Snapshot(10, len(pat)); !bytes.Equal(got, pat) {
		t.Errorf("content lost in the capped growth: %x", got)
	}
	if err := m.RemoteWrite(size, []byte{1}); err == nil {
		t.Error("a write at Size should be out of bounds")
	}
	if err := m.View(size-1, 2, func([]byte) {}); err == nil {
		t.Error("a view one byte past Size should be out of bounds")
	}
}

// TestNonCoherentAcrossGrowth: the per-line versions grow with the store,
// so a line cached before a growth still reads stale after a remote write,
// is still counted, and Invalidate still reconciles it; so does a line
// cached in the grown part before a further growth.
func TestNonCoherentAcrossGrowth(t *testing.T) {
	m := sxMem(1<<20, 64)
	buf := make([]byte, 16)
	for _, at := range []int{0, 3 * growStep} {
		if err := m.LocalWrite(at, bytes.Repeat([]byte{7}, 16)); err != nil {
			t.Fatal(err)
		}
		if err := m.LocalRead(at, buf); err != nil { // prime the line
			t.Fatal(err)
		}
		if err := m.RemoteWrite(at, bytes.Repeat([]byte{9}, 16)); err != nil {
			t.Fatal(err)
		}
		backed := len(m.data)
		if err := m.RemoteWrite(2*backed, []byte{1}); err != nil { // grow
			t.Fatal(err)
		}
		if len(m.data) <= backed || len(m.version) != len(m.data)/64 {
			t.Fatalf("store %d -> %d bytes with %d line versions", backed, len(m.data), len(m.version))
		}
		stale := m.StaleReads.Value()
		if err := m.LocalRead(at, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 7 || m.StaleReads.Value() != stale+1 {
			t.Errorf("line at %d read %d across a growth with %d new stale reads; want the stale 7, counted once",
				at, buf[0], m.StaleReads.Value()-stale)
		}
		if n := m.Invalidate(at, 16); n != 1 {
			t.Errorf("Invalidate dropped %d lines, want 1", n)
		}
		if err := m.LocalRead(at, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 9 {
			t.Errorf("line at %d read %d after Invalidate, want 9", at, buf[0])
		}
	}
}

// TestGrowthUnderLocalReads runs a local reader against datatype landings
// that keep growing the store: landing i writes i+1 into every word of a
// 64-byte block at i*gap and of one far past it, so each landing reaches
// past the backed length at some point, while the reader checks that every
// block already landed reads whole. Under -race it pins that growth
// replaces the slice only under the lock; the non-coherent variant drives
// the cache and the line versions across the same growths.
func TestGrowthUnderLocalReads(t *testing.T) {
	const gap, far, landings = 4096, 1 << 18, 1500
	vec := datatype.Vector(2, 8, far/8, datatype.Int64)
	wire := make([]byte, datatype.PackedSize(1, vec))
	for _, m := range []*Memory{coherentMem(8 << 20), sxMem(8<<20, 64)} {
		var landed atomic.Int64 // blocks [0, landed) have landed
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			r := rand.New(rand.NewSource(1))
			for !stop.Load() {
				n := landed.Load()
				if n == 0 {
					runtime.Gosched()
					continue
				}
				i := r.Int63n(n)
				m.Invalidate(int(i)*gap, len(buf))
				if err := m.LocalRead(int(i)*gap, buf); err != nil {
					t.Errorf("%s: local read: %v", m.Coherence(), err)
					return
				}
				for w := 0; w < len(buf); w += 8 {
					if v := binary.LittleEndian.Uint64(buf[w:]); v != uint64(i+1) {
						t.Errorf("%s: block %d word %d reads %d, want %d", m.Coherence(), i, w/8, v, i+1)
						return
					}
				}
			}
		}()
		for i := 0; i < landings; i++ {
			for w := 0; w < len(wire); w += 8 {
				binary.LittleEndian.PutUint64(wire[w:], uint64(i+1))
			}
			if err := m.RemoteUnpack(i*gap, wire, 1, vec, datatype.LittleEndian); err != nil {
				t.Errorf("%s: landing %d: %v", m.Coherence(), i, err)
				break
			}
			landed.Store(int64(i + 1))
		}
		stop.Store(true)
		wg.Wait()
		if want := (landings-1)*gap + far + 64; len(m.data) < want {
			t.Errorf("%s: store backed %d bytes after landings reaching %d", m.Coherence(), len(m.data), want)
		}
	}
}

// Property: on coherent memory, RemoteRead always returns the bytes most
// recently written by either path.
func TestCoherentReadYourWritesProperty(t *testing.T) {
	m := coherentMem(256)
	shadow := make([]byte, 256)
	r := rand.New(rand.NewSource(3))
	f := func(offRaw uint8, lenRaw uint8, remote bool) bool {
		off := int(offRaw) % 200
		n := int(lenRaw)%50 + 1
		data := make([]byte, n)
		r.Read(data)
		if remote {
			if err := m.RemoteWrite(off, data); err != nil {
				return false
			}
		} else {
			if err := m.LocalWrite(off, data); err != nil {
				return false
			}
		}
		copy(shadow[off:], data)
		got := make([]byte, n)
		if err := m.RemoteRead(off, got); err != nil {
			return false
		}
		return bytes.Equal(got, shadow[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: on non-coherent memory, a Fence always reconciles local reads
// with main memory.
func TestFenceReconcilesProperty(t *testing.T) {
	m := sxMem(256, 32)
	r := rand.New(rand.NewSource(4))
	f := func(offRaw uint8, lenRaw uint8) bool {
		off := int(offRaw) % 200
		n := int(lenRaw)%50 + 1
		data := make([]byte, n)
		r.Read(data)
		// Prime, clobber remotely, fence, read.
		prime := make([]byte, n)
		if err := m.LocalRead(off, prime); err != nil {
			return false
		}
		if err := m.RemoteWrite(off, data); err != nil {
			return false
		}
		m.Fence()
		got := make([]byte, n)
		if err := m.LocalRead(off, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoherenceString(t *testing.T) {
	if Coherent.String() != "coherent" || NonCoherentWriteThrough.String() != "non-coherent-write-through" {
		t.Error("Coherence.String is wrong")
	}
}
