package memsim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
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
