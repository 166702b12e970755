package datatype

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecode hardens the datatype wire codec against malformed input: the
// decoder must never panic and, when it succeeds, the result must
// re-encode and re-decode to the same signature (the type arrives from
// the network in every core RMA message, so this is attacker-adjacent
// surface in a real implementation).
func FuzzDecode(f *testing.F) {
	// Seed corpus: every constructor's encoding plus some junk.
	f.Add(Encode(Byte))
	f.Add(Encode(Int64))
	f.Add(Encode(Contiguous(4, Float64)))
	f.Add(Encode(Vector(3, 2, 4, Int32)))
	f.Add(Encode(Indexed([]int{1, 2}, []int{0, 5}, Byte)))
	f.Add(Encode(Struct([]Field{{Offset: 0, Count: 2, Type: Int32}, {Offset: 16, Count: 1, Type: Float64}})))
	f.Add([]byte{})
	f.Add([]byte{tagVector, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{tagStruct, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		dt, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		// A successfully decoded type must be internally consistent.
		// (Size may exceed Extent: struct and indexed type maps may
		// visit overlapping bytes, as MPI type maps may.)
		if dt.Size() < 0 || dt.Extent() < 0 {
			t.Fatalf("inconsistent type %s: size=%d extent=%d", dt.Name(), dt.Size(), dt.Extent())
		}
		// Walk must cover exactly Size bytes and stay within Extent.
		var covered int
		Walk(dt, func(off, n int, k Kind) {
			covered += n * k.Width()
			if off < 0 || off+n*k.Width() > dt.Extent() {
				t.Fatalf("segment [%d,%d) escapes extent %d", off, off+n*k.Width(), dt.Extent())
			}
		})
		if covered != dt.Size() {
			t.Fatalf("walk covered %d bytes, size is %d", covered, dt.Size())
		}
		// Round trip through the codec preserves the signature.
		dt2, _, err := Decode(Encode(dt))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !SignatureOf(1, dt).Equal(SignatureOf(1, dt2)) {
			t.Fatal("codec round trip changed the signature")
		}
		// Pack/unpack of a decoded type must work on a right-sized buffer.
		if dt.Extent() > 0 && dt.Extent() < 1<<16 {
			src := make([]byte, dt.Extent())
			wire, err := Pack(src, 1, dt, LittleEndian)
			if err != nil {
				t.Fatalf("pack: %v", err)
			}
			if err := Unpack(src, wire, 1, dt, LittleEndian); err != nil {
				t.Fatalf("unpack: %v", err)
			}
		}
	})
}

// FuzzCursor drives the run cursor — the iterator under WalkN, PackInto,
// Unpack, Compatible and core's deposits — over random nests of every
// constructor, deeper than its inline stack, against the recursive
// reference walk: the same runs in the same order once adjacent runs are
// merged, never an empty one, and NextBlocks' groups expand to exactly
// Next's runs. It then checks Compatible's walk in step of two such
// layouts against the signatures it no longer builds.
func FuzzCursor(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), int64(2), uint8(1), uint8(3))
	f.Add(int64(17), uint8(6), uint8(1), int64(17), uint8(6), uint8(1))
	f.Add(int64(-5), uint8(0), uint8(0), int64(99), uint8(5), uint8(4))

	f.Fuzz(func(t *testing.T, seedA int64, depthA, countA uint8, seedB int64, depthB, countB uint8) {
		a := nestedType(rand.New(rand.NewSource(seedA)), int(depthA%7))
		b := nestedType(rand.New(rand.NewSource(seedB)), int(depthB%7))
		na, nb := int(countA%6), int(countB%6)
		for _, c := range []struct {
			count int
			dt    Type
		}{{na, a}, {nb, b}} {
			var got []run
			var cur Cursor
			cur.Reset(c.count, c.dt)
			for off, n, k, ok := cur.Next(); ok; off, n, k, ok = cur.Next() {
				if n <= 0 {
					t.Fatalf("%s x%d: empty run at %d", c.dt.Name(), c.count, off)
				}
				got = append(got, run{off, n, k})
			}
			if want := merged(refRuns(c.count, c.dt)); !reflect.DeepEqual(merged(got), want) {
				t.Fatalf("%s x%d: cursor runs %v, reference %v", c.dt.Name(), c.count, merged(got), want)
			}
			// Expanded, NextBlocks' groups are the very runs Next yields.
			var grouped []run
			cur.Reset(c.count, c.dt)
			for off, n, k, nb, step, ok := cur.NextBlocks(); ok; off, n, k, nb, step, ok = cur.NextBlocks() {
				if nb <= 0 {
					t.Fatalf("%s x%d: empty group at %d", c.dt.Name(), c.count, off)
				}
				for ; nb > 0; nb, off = nb-1, off+step {
					grouped = append(grouped, run{off, n, k})
				}
			}
			if !reflect.DeepEqual(grouped, got) {
				t.Fatalf("%s x%d: expanded groups %v, runs %v", c.dt.Name(), c.count, grouped, got)
			}
		}
		want := SignatureOf(na, a).Equal(SignatureOf(nb, b))
		if got := Compatible(na, a, nb, b); got != want {
			t.Fatalf("Compatible(%d x %s, %d x %s) = %v, signatures equal = %v", na, a.Name(), nb, b.Name(), got, want)
		}
		if !Compatible(na, a, na, a) {
			t.Fatalf("%d x %s is not compatible with itself", na, a.Name())
		}
	})
}

// FuzzPlan checks PackInto and Unpack — one copy for a dense type, the
// type's plan otherwise — against a copy built from the Cursor's runs,
// element by element, over random nests of every constructor and their
// decoded twins, random counts and both byte orders: the same wire bytes,
// the same memory, holes untouched. A twin whose plan is refused, as one
// past maxPlanGroups is, must give the same bytes through the Cursor.
func FuzzPlan(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), false, false)
	f.Add(int64(17), uint8(6), uint8(5), true, true)
	f.Add(int64(-5), uint8(2), uint8(1), true, false)

	f.Fuzz(func(t *testing.T, seed int64, depth, count uint8, decoded, bigEndian bool) {
		r := rand.New(rand.NewSource(seed))
		dt := nestedType(r, int(depth%7))
		if decoded {
			dt = decodeCopy(t, dt)
		}
		n, order := int(count%6), LittleEndian
		if bigEndian {
			order = BigEndian
		}
		refused := decodeCopy(t, dt)
		if m := refused.cache(); m != nil {
			m.planOnce.Do(func() {})
			if _, _, ok := m.planOf(refused); ok {
				t.Fatalf("%s: a refused plan is still used", refused.Name())
			}
		}
		mem := make([]byte, ExtentOf(n, dt))
		r.Read(mem)
		want := make([]byte, PackedSize(n, dt))
		cursorCopy(mem, want, n, dt, order, true)
		wantMem := bytes.Repeat([]byte{0xAB}, len(mem))
		cursorCopy(wantMem, want, n, dt, order, false)
		for _, typ := range []Type{dt, refused} {
			wire := make([]byte, len(want))
			if err := PackInto(wire, mem, n, typ, order); err != nil {
				t.Fatalf("%s x%d: pack: %v", typ.Name(), n, err)
			}
			if !bytes.Equal(wire, want) {
				t.Fatalf("%s x%d, %v: packed %x, cursor runs %x", typ.Name(), n, order, wire, want)
			}
			got := bytes.Repeat([]byte{0xAB}, len(mem))
			if err := Unpack(got, want, n, typ, order); err != nil {
				t.Fatalf("%s x%d: unpack: %v", typ.Name(), n, err)
			}
			if !bytes.Equal(got, wantMem) {
				t.Fatalf("%s x%d, %v: unpacked %x, cursor runs %x", typ.Name(), n, order, got, wantMem)
			}
		}
	})
}

// decodeCopy returns a fresh value of t through the codec, with nothing
// cached yet.
func decodeCopy(t *testing.T, dt Type) Type {
	t.Helper()
	dec, _, err := Decode(Encode(dt))
	if err != nil {
		t.Fatalf("decode %s: %v", dt.Name(), err)
	}
	return dec
}

// cursorCopy moves count instances of t between mem and wire one
// Cursor.Next run at a time and one byte at a time — the walk a plan
// memoises, without the plan or the copy helpers: pack when toWire,
// unpack otherwise.
func cursorCopy(mem, wire []byte, count int, t Type, order ByteOrder, toWire bool) {
	var c Cursor
	c.Reset(count, t)
	pos := 0
	for off, n, k, ok := c.Next(); ok; off, n, k, ok = c.Next() {
		w := k.Width()
		for e := 0; e < n; e, off, pos = e+1, off+w, pos+w {
			for j := 0; j < w; j++ {
				m, x := off+j, pos+j
				if order == BigEndian {
					m = off + w - 1 - j
				}
				if toWire {
					wire[x] = mem[m]
				} else {
					mem[m] = wire[x]
				}
			}
		}
	}
}

// TestPlanBounds pins the limits on a plan: a layout with more than
// maxPlanGroups groups per instance keeps none and still packs and
// unpacks right through the Cursor, even when its runs abut and would
// merge into one; a decoded description claiming 2^31 blocks whose wire
// or buffer is short fails its length check without building a plan at
// all; and a transfer of no instances builds none either.
func TestPlanBounds(t *testing.T) {
	for _, groups := range []int{maxPlanGroups, maxPlanGroups + 1} {
		blocklens, displs := make([]int, groups), make([]int, groups)
		for i := range displs {
			blocklens[i], displs[i] = 1, 2*i
		}
		dt := Indexed(blocklens, displs, Int64)
		mem := make([]byte, ExtentOf(3, dt))
		rand.New(rand.NewSource(int64(groups))).Read(mem)
		want := make([]byte, PackedSize(3, dt))
		cursorCopy(mem, want, 3, dt, BigEndian, true)
		wire, err := Pack(mem, 3, dt, BigEndian)
		if err != nil || !bytes.Equal(wire, want) {
			t.Fatalf("%d groups: packed %x (%v), cursor runs %x", groups, wire, err, want)
		}
		if _, _, ok := dt.cache().planOf(dt); ok != (groups <= maxPlanGroups) {
			t.Errorf("%d groups: planned = %v, cap is %d", groups, ok, maxPlanGroups)
		}
	}

	word := Struct([]Field{{Offset: 0, Count: 1, Type: Int64}})
	for _, groups := range []int{maxPlanGroups, maxPlanGroups + 1} {
		dt := decodeCopy(t, Contiguous(groups, word))
		if _, _, ok := dt.cache().planOf(dt); ok != (groups <= maxPlanGroups) {
			t.Errorf("%d abutting words: planned = %v, cap is %d", groups, ok, maxPlanGroups)
		}
	}

	huge := decodeCopy(t, Vector(1<<31, 1, 2, word))
	if err := Unpack(make([]byte, 64), make([]byte, 16), 1, huge, LittleEndian); err == nil {
		t.Fatal("a 16-byte wire for a 2^31-element layout should fail")
	}
	if err := PackInto(make([]byte, 16), make([]byte, 64), 1, huge, LittleEndian); err == nil {
		t.Fatal("a 16-byte pack buffer for a 2^31-element layout should fail")
	}
	merging := decodeCopy(t, Contiguous(1<<31, word))
	for _, dt := range []Type{huge, merging} {
		if err := Unpack(nil, nil, 0, dt, LittleEndian); err != nil {
			t.Fatalf("%s x0: unpack: %v", dt.Name(), err)
		}
		if err := PackInto(nil, nil, 0, dt, LittleEndian); err != nil {
			t.Fatalf("%s x0: pack: %v", dt.Name(), err)
		}
		built := true
		dt.cache().planOnce.Do(func() { built = false })
		if built {
			t.Errorf("%s: a rejected or empty transfer built its type's plan", dt.Name())
		}
	}
	fresh := decodeCopy(t, merging)
	if _, _, ok := fresh.cache().planOf(fresh); ok {
		t.Error("2^31 abutting words were planned")
	}
}
