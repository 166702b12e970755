package datatype

import (
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
// merged, never an empty one. It then checks Compatible's walk in step of
// two such layouts against the signatures it no longer builds.
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
