package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
)

// TestChaos runs a randomized multi-origin program against a sequential
// reference model. Each origin owns a disjoint 1KB area of the target's
// exposed memory — the lower half driven by non-atomic puts/gets, the
// upper half by atomic accumulates and RMWs (mixed-class streams to one
// location are unordered by specification; see AttrOrdering) — and issues
// a random op mix with random attribute combinations, maintaining a local
// shadow. After every Complete, a get must match the shadow exactly; at
// the end, the target memory must equal the union of all shadows.
//
// Because each origin writes only its own area and the network is
// ordered, the shadow semantics are deterministic even without the
// ordering attribute; the unordered variant forces AttrOrdering to keep
// them so.
func TestChaos(t *testing.T) {
	variants := []struct {
		name      string
		unordered bool
		baseAttrs Attr
		mech      serializer.Mechanism
	}{
		{"ordered-net", false, AttrNone, serializer.MechThread},
		{"unordered-net+ordering", true, AttrOrdering, serializer.MechThread},
		{"ordered-net+coarse-lock", false, AttrNone, serializer.MechCoarseLock},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			runChaos(t, v.unordered, v.baseAttrs, v.mech)
		})
	}
}

const (
	chaosOrigins = 3
	chaosArea    = 1024
	chaosOps     = 150
)

func runChaos(t *testing.T, unordered bool, baseAttrs Attr, mech serializer.Mechanism) {
	w := newWorld(t, runtime.Config{Ranks: chaosOrigins + 1, UnorderedNet: unordered, Seed: 99})
	shadows := make([][]byte, chaosOrigins+1)
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{Atomicity: mech})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(chaosOrigins * chaosArea)
			enc := tm.Encode()
			for r := 1; r <= chaosOrigins; r++ {
				p.Send(r, 9999, enc)
			}
			p.Barrier()
			// Final verification: target memory equals the union of the
			// shadows the origins report.
			for r := 1; r <= chaosOrigins; r++ {
				shadow, _ := p.Recv(r, 7777)
				base := (r - 1) * chaosArea
				got := p.Mem().Snapshot(region.Offset+base, chaosArea)
				if !bytes.Equal(got, shadow) {
					t.Errorf("origin %d: target area diverged from shadow", r)
				}
			}
			return
		}

		enc, _ := p.Recv(0, 9999)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Errorf("decode: %v", err)
			panic("chaos: no descriptor")
		}
		base := (p.Rank() - 1) * chaosArea
		shadow := make([]byte, chaosArea)
		shadows[p.Rank()] = shadow
		rng := rand.New(rand.NewSource(int64(1000 + p.Rank())))
		scratch := p.Alloc(chaosArea)
		getBuf := p.Alloc(chaosArea)
		const putArea = chaosArea / 2 // [0, putArea): puts/gets; rest: atomics
		fail := func(format string, args ...any) {
			t.Errorf(format, args...)
			panic("chaos: aborting rank after failure")
		}

		randAttrs := func() Attr {
			attrs := baseAttrs
			if rng.Intn(2) == 0 {
				attrs |= AttrBlocking
			}
			if rng.Intn(3) == 0 {
				attrs |= AttrRemoteComplete
			}
			return attrs
		}

		var pending []*Request
		for op := 0; op < chaosOps; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // put a random span in the put half
				off := rng.Intn(putArea - 1)
				n := 1 + rng.Intn(putArea-off)
				data := make([]byte, n)
				rng.Read(data)
				p.WriteLocal(scratch, 0, data)
				sub := subRegion(scratch, 0, n)
				req, err := e.Put(sub, n, datatype.Byte, tm, base+off, n, datatype.Byte, 0, comm, randAttrs())
				if err != nil {
					fail("put: %v", err)
				}
				pending = append(pending, req)
				copy(shadow[off:], data)
			case 4, 5: // accumulate-sum an int64 cell in the atomic half
				cell := putArea + rng.Intn((chaosArea-putArea)/8)*8
				delta := int64(rng.Intn(1000))
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(delta))
				p.WriteLocal(scratch, 0, b[:])
				sub := subRegion(scratch, 0, 8)
				req, err := e.Accumulate(AccSum, sub, 1, datatype.Int64, tm, base+cell, 1, datatype.Int64, 0, comm, randAttrs()|AttrAtomic)
				if err != nil {
					fail("acc: %v", err)
				}
				pending = append(pending, req)
				cur := int64(binary.LittleEndian.Uint64(shadow[cell:]))
				binary.LittleEndian.PutUint64(shadow[cell:], uint64(cur+delta))
			case 6: // fetch-and-add a cell in the atomic half
				cell := putArea + rng.Intn((chaosArea-putArea)/8)*8
				// FetchAdd sees the shadow value only if everything
				// earlier is applied; force that first.
				if err := e.Complete(comm, 0); err != nil {
					fail("complete: %v", err)
				}
				pending = pending[:0]
				delta := int64(rng.Intn(50))
				old, err := e.FetchAdd(tm, base+cell, delta, 0, comm, baseAttrs)
				if err != nil {
					fail("fetchadd: %v", err)
				}
				want := int64(binary.LittleEndian.Uint64(shadow[cell:]))
				if old != want {
					fail("op %d: fetchadd old = %d, want %d", op, old, want)
				}
				binary.LittleEndian.PutUint64(shadow[cell:], uint64(want+delta))
			case 7, 8: // complete, then a verifying get of a random span
				if err := e.Complete(comm, 0); err != nil {
					fail("complete: %v", err)
				}
				pending = pending[:0]
				off := rng.Intn(chaosArea - 1)
				n := 1 + rng.Intn(chaosArea-off)
				sub := subRegion(getBuf, 0, n)
				req, err := e.Get(sub, n, datatype.Byte, tm, base+off, n, datatype.Byte, 0, comm, baseAttrs)
				if err != nil {
					fail("get: %v", err)
				}
				req.Wait()
				got := p.ReadLocal(getBuf, 0, n)
				if !bytes.Equal(got, shadow[off:off+n]) {
					fail("op %d: get [%d,%d) diverged from shadow", op, off, off+n)
				}
			default: // drain pending requests
				WaitAll(pending...)
				pending = pending[:0]
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("final complete: %v", err)
		}
		p.Barrier()
		p.Send(0, 7777, shadow)
	})
}

// subRegion narrows a region (test helper mirroring armci.sub).
func subRegion(r memsim.Region, off, n int) memsim.Region {
	return memsim.Region{Offset: r.Offset + off, Size: n}
}
