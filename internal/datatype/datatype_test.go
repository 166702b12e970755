package datatype

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestPrimitiveWidths(t *testing.T) {
	cases := []struct {
		t    Type
		size int
	}{
		{Byte, 1}, {Int32, 4}, {Int64, 8}, {Float32, 4}, {Float64, 8},
	}
	for _, c := range cases {
		if c.t.Size() != c.size || c.t.Extent() != c.size {
			t.Errorf("%s: size/extent = %d/%d, want %d", c.t.Name(), c.t.Size(), c.t.Extent(), c.size)
		}
	}
}

// TestByteOrderWordCodec: a word encodes and decodes in the order asked
// for, whichever order the host runs in.
func TestByteOrderWordCodec(t *testing.T) {
	const v = uint64(0x0102030405060708)
	for _, tc := range []struct {
		order ByteOrder
		want  []byte
	}{
		{LittleEndian, binary.LittleEndian.AppendUint64(nil, v)},
		{BigEndian, binary.BigEndian.AppendUint64(nil, v)},
	} {
		b := make([]byte, 8)
		tc.order.PutUint64(b, v)
		if !bytes.Equal(b, tc.want) || tc.order.Uint64(b) != v {
			t.Errorf("%v: encoded %x (want %x), decoded %#x", tc.order, b, tc.want, tc.order.Uint64(b))
		}
	}
}

func TestContiguousLayout(t *testing.T) {
	ct := Contiguous(4, Int32)
	if ct.Size() != 16 || ct.Extent() != 16 {
		t.Fatalf("contiguous(4,int32): size=%d extent=%d, want 16/16", ct.Size(), ct.Extent())
	}
	var segs int
	Walk(ct, func(off, n int, k Kind) {
		segs++
		if off != 0 || n != 4 || k != KInt32 {
			t.Errorf("unexpected segment (%d,%d,%v)", off, n, k)
		}
	})
	if segs != 1 {
		t.Errorf("contiguous primitive should collapse to 1 segment, got %d", segs)
	}
}

func TestVectorLayout(t *testing.T) {
	// 3 blocks of 2 float64, stride 4 elements.
	vt := Vector(3, 2, 4, Float64)
	if vt.Size() != 48 {
		t.Errorf("size = %d, want 48", vt.Size())
	}
	if want := ((3-1)*4 + 2) * 8; vt.Extent() != want {
		t.Errorf("extent = %d, want %d", vt.Extent(), want)
	}
	var offs []int
	Walk(vt, func(off, n int, k Kind) {
		offs = append(offs, off)
		if n != 2 || k != KFloat64 {
			t.Errorf("segment (%d,%d,%v), want blocks of 2 float64", off, n, k)
		}
	})
	want := []int{0, 32, 64}
	if len(offs) != 3 || offs[0] != want[0] || offs[1] != want[1] || offs[2] != want[2] {
		t.Errorf("block offsets %v, want %v", offs, want)
	}
}

func TestVectorStrideValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Vector with stride < blocklen should panic")
		}
	}()
	Vector(2, 4, 2, Byte)
}

func TestIndexedLayout(t *testing.T) {
	it := Indexed([]int{2, 1}, []int{3, 0}, Int32)
	if it.Size() != 12 {
		t.Errorf("size = %d, want 12", it.Size())
	}
	if want := (3 + 2) * 4; it.Extent() != want {
		t.Errorf("extent = %d, want %d", it.Extent(), want)
	}
}

func TestStructLayout(t *testing.T) {
	st := Struct([]Field{
		{Offset: 0, Count: 1, Type: Int64},
		{Offset: 8, Count: 2, Type: Float32},
		{Offset: 16, Count: 4, Type: Byte},
	})
	if st.Size() != 8+8+4 {
		t.Errorf("size = %d, want 20", st.Size())
	}
	if st.Extent() != 20 {
		t.Errorf("extent = %d, want 20", st.Extent())
	}
}

func TestPackUnpackContiguousRoundtrip(t *testing.T) {
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i)
	}
	wire, err := Pack(src, 8, Int64, LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, src) {
		t.Fatal("little-endian contiguous pack must be identity")
	}
	dst := make([]byte, 64)
	if err := Unpack(dst, wire, 8, Int64, LittleEndian); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestPackBigEndianSwaps(t *testing.T) {
	src := make([]byte, 8)
	binary.BigEndian.PutUint64(src, 0x0102030405060708)
	wire, err := Pack(src, 1, Int64, BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(wire); got != 0x0102030405060708 {
		t.Fatalf("wire value %#x, want canonical little-endian of the big-endian source", got)
	}
	// Unpacking into a big-endian rank restores the original bytes.
	dst := make([]byte, 8)
	if err := Unpack(dst, wire, 1, Int64, BigEndian); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("big-endian roundtrip mismatch")
	}
}

func TestCrossEndianTransfer(t *testing.T) {
	// A float64 written on a little-endian rank must read back as the
	// same value on a big-endian rank after pack/unpack.
	val := 3.14159
	src := make([]byte, 8)
	binary.LittleEndian.PutUint64(src, math.Float64bits(val))
	wire, err := Pack(src, 1, Float64, LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 8)
	if err := Unpack(dst, wire, 1, Float64, BigEndian); err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(binary.BigEndian.Uint64(dst)); got != val {
		t.Fatalf("cross-endian value = %v, want %v", got, val)
	}
}

func TestPackVectorGathers(t *testing.T) {
	// Buffer: 6 int32; vector takes elements 0,1 and 4,5.
	src := make([]byte, 24)
	for i := 0; i < 6; i++ {
		binary.LittleEndian.PutUint32(src[i*4:], uint32(10+i))
	}
	vt := Vector(2, 2, 4, Int32)
	wire, err := Pack(src, 1, vt, LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{10, 11, 14, 15}
	for i, w := range want {
		if got := binary.LittleEndian.Uint32(wire[i*4:]); got != w {
			t.Errorf("wire[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestUnpackVectorScattersPreservingHoles(t *testing.T) {
	vt := Vector(2, 1, 2, Int32) // elements 0 and 2
	dst := make([]byte, 16)
	for i := range dst {
		dst[i] = 0xEE
	}
	wire := make([]byte, 8)
	binary.LittleEndian.PutUint32(wire[0:], 1)
	binary.LittleEndian.PutUint32(wire[4:], 2)
	if err := Unpack(dst, wire, 1, vt, LittleEndian); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(dst[0:]) != 1 || binary.LittleEndian.Uint32(dst[8:]) != 2 {
		t.Fatal("scattered values wrong")
	}
	for _, i := range []int{4, 5, 6, 7, 12, 13, 14, 15} {
		if dst[i] != 0xEE {
			t.Fatalf("hole byte %d clobbered", i)
		}
	}
}

func TestPackSizeMismatch(t *testing.T) {
	src := make([]byte, 4)
	if _, err := Pack(src, 2, Int32, LittleEndian); err == nil {
		t.Fatal("packing 2 int32 from 4 bytes should fail")
	}
	dst := make([]byte, 3)
	if err := Unpack(dst, make([]byte, 4), 1, Int32, LittleEndian); err == nil {
		t.Fatal("unpacking into a short buffer should fail")
	}
}

func TestSignatureCompatibility(t *testing.T) {
	// 8 bytes contiguous == vector of 2x4 bytes in signature terms.
	a := Contiguous(8, Byte)
	v := Vector(2, 4, 10, Byte)
	if !Compatible(1, a, 1, v) {
		t.Error("8 contiguous bytes should match a 2x4 byte vector")
	}
	if Compatible(1, a, 1, Contiguous(2, Int32)) {
		t.Error("bytes must not match int32s (heterogeneity rule)")
	}
	if !Compatible(4, Int32, 1, Contiguous(4, Int32)) {
		t.Error("count folding should be signature-equal")
	}
	if Compatible(3, Int32, 4, Int32) {
		t.Error("different element counts must not match")
	}
}

// TestPackUnpackPropertyRoundtrip: for random types, random data, and both
// byte orders, unpack(pack(x)) == x on the covered bytes, holes preserved.
func TestPackUnpackPropertyRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		dt := nestedType(r, 2)
		count := 1 + r.Intn(3)
		order := LittleEndian
		if r.Intn(2) == 1 {
			order = BigEndian
		}
		ext := ExtentOf(count, dt)
		src := make([]byte, ext)
		r.Read(src)
		wire, err := Pack(src, count, dt, order)
		if err != nil {
			t.Fatalf("iter %d (%s x%d): pack: %v", iter, dt.Name(), count, err)
		}
		if len(wire) != PackedSize(count, dt) {
			t.Fatalf("iter %d: wire %d bytes, want %d", iter, len(wire), PackedSize(count, dt))
		}
		dst := make([]byte, ext)
		const holeFill = 0xAB
		for i := range dst {
			dst[i] = holeFill
		}
		if err := Unpack(dst, wire, count, dt, order); err != nil {
			t.Fatalf("iter %d: unpack: %v", iter, err)
		}
		// Covered bytes must match src; holes must keep the fill.
		covered := make([]bool, ext)
		for i := 0; i < count; i++ {
			at := i * dt.Extent()
			Walk(dt, func(off, n int, k Kind) {
				for b := 0; b < n*k.Width(); b++ {
					covered[at+off+b] = true
				}
			})
		}
		for i := range dst {
			if covered[i] && dst[i] != src[i] {
				t.Fatalf("iter %d (%s): covered byte %d = %#x, want %#x", iter, dt.Name(), i, dst[i], src[i])
			}
			if !covered[i] && dst[i] != holeFill {
				t.Fatalf("iter %d (%s): hole byte %d clobbered", iter, dt.Name(), i)
			}
		}
	}
}

// Property: packed size equals the sum of walked segment widths.
func TestSizeMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func() bool {
		dt := nestedType(r, 2)
		var sum int
		Walk(dt, func(off, n int, k Kind) { sum += n * k.Width() })
		return sum == dt.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: signatures are invariant under codec roundtrip.
func TestCodecPreservesSignature(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 300; iter++ {
		dt := nestedType(r, 2)
		enc := Encode(dt)
		dec, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("iter %d: decode(%s): %v", iter, dt.Name(), err)
		}
		if n != len(enc) {
			t.Fatalf("iter %d: decode consumed %d of %d bytes", iter, n, len(enc))
		}
		if !SignatureOf(1, dt).Equal(SignatureOf(1, dec)) {
			t.Fatalf("iter %d: signature changed across codec: %s vs %s", iter, dt.Name(), dec.Name())
		}
		if dt.Size() != dec.Size() || dt.Extent() != dec.Extent() {
			t.Fatalf("iter %d: size/extent changed across codec", iter)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},              // unknown tag
		{tagPrimitive},    // truncated
		{tagPrimitive, 7}, // unknown kind
		{tagContig},       // missing varint
		{tagVector, 1},    // truncated varints
	}
	for i, c := range cases {
		if _, _, err := Decode(c); err == nil {
			t.Errorf("case %d: Decode(%v) succeeded, want error", i, c)
		}
	}
}

func TestCodecStruct(t *testing.T) {
	st := Struct([]Field{
		{Offset: 0, Count: 2, Type: Int32},
		{Offset: 16, Count: 1, Type: Vector(2, 1, 2, Float64)},
	})
	dec, _, err := Decode(Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	if !SignatureOf(1, st).Equal(SignatureOf(1, dec)) {
		t.Fatal("struct codec changed the signature")
	}
}

// --- The one iterator against its oracle ---------------------------------

// run is one callback of a layout walk.
type run struct {
	off, n int
	k      Kind
}

// refWalk is the recursive closure walk walkN replaced, kept as the
// reference implementation: one callback per element, every nested level
// wrapping the callback to shift offsets, no notion of density.
func refWalk(t Type, fn func(off, n int, k Kind)) {
	nested := func(base Type, at, count int) {
		ext := base.Extent()
		for i := 0; i < count; i++ {
			shift := at + i*ext
			refWalk(base, func(off, n int, k Kind) { fn(shift+off, n, k) })
		}
	}
	switch x := t.(type) {
	case primitive:
		fn(0, 1, x.kind)
	case *contiguous:
		nested(x.base, 0, x.count)
	case *vector:
		for b := 0; b < x.count; b++ {
			nested(x.base, b*x.stride*x.base.Extent(), x.blocklen)
		}
	case *indexed:
		for b, d := range x.displs {
			nested(x.base, d*x.base.Extent(), x.blocklens[b])
		}
	case *structT:
		for _, f := range x.fields {
			nested(f.Type, f.Offset, f.Count)
		}
	default:
		panic("refWalk: unknown type")
	}
}

// refRuns lists the reference walk of count instances of t.
func refRuns(count int, t Type) []run {
	var out []run
	refWalk(&contiguous{count: count, base: t}, func(off, n int, k Kind) { out = append(out, run{off, n, k}) })
	return out
}

// merged joins consecutive runs that abut in memory and share a kind, so
// walks that differ only in how finely they cut a run compare equal.
func merged(runs []run) []run {
	var out []run
	for _, r := range runs {
		if n := len(out); n > 0 && out[n-1].k == r.k && out[n-1].off+out[n-1].n*r.k.Width() == r.off {
			out[n-1].n += r.n
			continue
		}
		out = append(out, r)
	}
	return out
}

// Signature is the flattened element-kind sequence of count instances of
// a type, run-length encoded as (kind, n) pairs: the MPI matching rule
// built the slow way, the oracle Compatible's walk in step is checked
// against.
type Signature []sigRun

type sigRun struct {
	Kind Kind
	N    int
}

// SignatureOf computes the signature of count instances of t.
func SignatureOf(count int, t Type) Signature {
	var sig Signature
	WalkN(count, t, func(off, n int, k Kind) {
		if len(sig) > 0 && sig[len(sig)-1].Kind == k {
			sig[len(sig)-1].N += n
			return
		}
		sig = append(sig, sigRun{k, n})
	})
	return sig
}

// Equal reports whether two signatures describe the same element sequence.
func (s Signature) Equal(o Signature) bool { return slices.Equal(s, o) }

// refCopy moves count instances of t between mem and the wire with the
// reference walk: pack when toWire, unpack otherwise.
func refCopy(mem, wire []byte, count int, t Type, order ByteOrder, toWire bool) {
	pos := 0
	for _, r := range refRuns(count, t) {
		w := r.k.Width()
		m, x := mem[r.off:r.off+w], wire[pos:pos+w]
		if !toWire {
			m, x = x, m
		}
		for j := 0; j < w; j++ {
			if order == BigEndian {
				x[j] = m[w-1-j]
			} else {
				x[j] = m[j]
			}
		}
		pos += w
	}
}

// nestedType builds a random type tree up to depth levels deep with the
// shapes the iterator must get right: zero counts and block lengths,
// stride == blocklen, contiguous-of-vector, unsorted indexed blocks, and
// structs whose fields overlap.
func nestedType(r *rand.Rand, depth int) Type {
	if depth == 0 || r.Intn(5) == 0 {
		return []Type{Byte, Int32, Int64, Float32, Float64}[r.Intn(5)]
	}
	base := nestedType(r, depth-1)
	switch r.Intn(4) {
	case 0:
		return Contiguous(r.Intn(4), base)
	case 1:
		bl := r.Intn(3)
		return Vector(r.Intn(4), bl, bl+r.Intn(2)*r.Intn(3), base)
	case 2:
		n := r.Intn(4)
		blocklens, displs := make([]int, n), make([]int, n)
		for i := range displs {
			blocklens[i], displs[i] = r.Intn(3), r.Intn(6)
		}
		return Indexed(blocklens, displs, base)
	default:
		fields := make([]Field, r.Intn(4))
		for i := range fields {
			fields[i] = Field{Offset: r.Intn(12), Count: r.Intn(3), Type: nestedType(r, depth-1)}
		}
		return Struct(fields)
	}
}

// TestWalkNMatchesReference compares walkN run for run (after merging
// adjacent runs) with the reference walk over random nested types and
// counts 0, 1 and many, then checks Pack and Unpack byte for byte against
// the reference copy in both byte orders, holes included.
func TestWalkNMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 2000; iter++ {
		dt := nestedType(r, 3)
		count := []int{0, 1, 1, 2, 5}[r.Intn(5)]
		var got []run
		WalkN(count, dt, func(off, n int, k Kind) {
			if n <= 0 {
				t.Fatalf("iter %d (%s x%d): empty run at %d", iter, dt.Name(), count, off)
			}
			got = append(got, run{off, n, k})
		})
		want := merged(refRuns(count, dt))
		if got := merged(got); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (%s x%d): walkN runs %v, reference %v", iter, dt.Name(), count, got, want)
		}
		if k, n, ok := dt.dense(); ok {
			if dt.Size() != dt.Extent() || n*k.Width() != dt.Size() {
				t.Fatalf("iter %d (%s): dense %d x %v but size=%d extent=%d", iter, dt.Name(), n, k, dt.Size(), dt.Extent())
			}
			if len(got) > 1 {
				t.Fatalf("iter %d (%s x%d): dense type walked as %d runs", iter, dt.Name(), count, len(got))
			}
		}

		order := []ByteOrder{LittleEndian, BigEndian}[r.Intn(2)]
		src := make([]byte, ExtentOf(count, dt))
		r.Read(src)
		wire, err := Pack(src, count, dt, order)
		if err != nil {
			t.Fatalf("iter %d (%s x%d): pack: %v", iter, dt.Name(), count, err)
		}
		refWire := make([]byte, len(wire))
		refCopy(src, refWire, count, dt, order, true)
		if !bytes.Equal(wire, refWire) {
			t.Fatalf("iter %d (%s x%d, %v): packed %x, reference %x", iter, dt.Name(), count, order, wire, refWire)
		}
		dst := bytes.Repeat([]byte{0xAB}, len(src))
		refDst := bytes.Repeat([]byte{0xAB}, len(src))
		if err := Unpack(dst, wire, count, dt, order); err != nil {
			t.Fatalf("iter %d (%s x%d): unpack: %v", iter, dt.Name(), count, err)
		}
		refCopy(refDst, wire, count, dt, order, false)
		if !bytes.Equal(dst, refDst) {
			t.Fatalf("iter %d (%s x%d, %v): unpacked %x, reference %x", iter, dt.Name(), count, order, dst, refDst)
		}
	}
}

// TestDenseIsStructural pins which constructors may claim a single run:
// Size() == Extent() is not enough, because an Indexed or Struct map can
// fill its extent out of order or twice over.
func TestDenseIsStructural(t *testing.T) {
	cases := []struct {
		t     Type
		dense bool
		n     int
	}{
		{Int64, true, 1},
		{Contiguous(4, Int32), true, 4},
		{Contiguous(0, Float64), true, 0},
		{Contiguous(3, Contiguous(2, Byte)), true, 6},
		{Vector(4, 256, 256, Byte), true, 1024},
		{Vector(1, 5, 100, Int64), true, 5},
		{Vector(0, 5, 100, Int64), true, 0},
		{Contiguous(2, Vector(3, 2, 2, Int32)), true, 12},
		{Vector(2, 1, 2, Int64), false, 0},
		{Contiguous(2, Vector(2, 1, 2, Int64)), false, 0},
		// Size == Extent, but the blocks are visited back to front.
		{Indexed([]int{1, 1}, []int{1, 0}, Int32), false, 0},
		// Size == Extent == 12, but bytes 0-3 are covered twice and bytes
		// 4-7 are a hole.
		{Struct([]Field{{Offset: 0, Count: 1, Type: Int32}, {Offset: 0, Count: 1, Type: Int32}, {Offset: 8, Count: 1, Type: Int32}}), false, 0},
	}
	for _, c := range cases {
		_, n, ok := c.t.dense()
		if ok != c.dense || (ok && n != c.n) {
			t.Errorf("%s: dense = (%d, %v), want (%d, %v)", c.t.Name(), n, ok, c.n, c.dense)
		}
	}
}

// TestCompatibleDenseAndGeneral proves the dense shortcut and the
// signature comparison agree wherever they meet.
func TestCompatibleDenseAndGeneral(t *testing.T) {
	strided := Vector(4, 256, 300, Byte) // general walk, 1024 bytes
	cases := []struct {
		ocount int
		ot     Type
		tcount int
		tt     Type
		want   bool
	}{
		{1024, Byte, 1, Vector(4, 256, 256, Byte), true}, // dense vs dense
		{1024, Byte, 1, strided, true},                   // dense vs general
		{1, strided, 1024, Byte, true},                   // general vs dense
		{1, strided, 1, Indexed([]int{512, 512}, []int{600, 0}, Byte), true},
		{1023, Byte, 1, strided, false},
		{8, Int64, 64, Byte, false}, // same bytes, different kinds
		{64, Byte, 8, Int64, false},
		{8, Int64, 1, Vector(8, 1, 2, Int64), true},
		{8, Int64, 1, Vector(8, 1, 2, Float64), false},
		{2, Int32, 1, Struct([]Field{{Offset: 0, Count: 1, Type: Int32}, {Offset: 8, Count: 1, Type: Float32}}), false},
		{0, Int64, 0, Byte, true}, // nothing moves: kinds cannot disagree
		{0, Int64, 1, Contiguous(0, Struct(nil)), true},
		{0, Int64, 1, Byte, false},
	}
	for _, c := range cases {
		if got := Compatible(c.ocount, c.ot, c.tcount, c.tt); got != c.want {
			t.Errorf("Compatible(%d x %s, %d x %s) = %v, want %v", c.ocount, c.ot.Name(), c.tcount, c.tt.Name(), got, c.want)
		}
		if got := SignatureOf(c.ocount, c.ot).Equal(SignatureOf(c.tcount, c.tt)); got != c.want {
			t.Errorf("signatures of %d x %s and %d x %s equal = %v, want %v", c.ocount, c.ot.Name(), c.tcount, c.tt.Name(), got, c.want)
		}
	}
}

// TestTransferAllocs pins the three calls every transfer makes, and the
// type encoding it ships, at no allocation at all on the benchmark's
// layer-drive shapes: the run cursor lives on the caller's stack, two
// layouts are compared in step without a signature, and a type is encoded
// once in its life.
func TestTransferAllocs(t *testing.T) {
	vec := Vector(8, 1, 2, Int64)
	shapes := []struct {
		name  string
		count int
		dt    Type
		peer  Type // a different type value with the same signature
	}{
		{"b8", 1, Int64, Contiguous(1, Int64)},
		{"b1k", 1024, Byte, Contiguous(1024, Byte)},
		{"vec", 8, vec, Indexed([]int{1, 1, 1, 1, 1, 1, 1, 1}, []int{0, 2, 4, 6, 8, 10, 12, 14}, Int64)},
	}
	for _, sh := range shapes {
		mem := make([]byte, ExtentOf(sh.count, sh.dt))
		wire := make([]byte, PackedSize(sh.count, sh.dt))
		peerCount := PackedSize(sh.count, sh.dt) / sh.peer.Size()
		if !Compatible(sh.count, sh.dt, peerCount, sh.peer) {
			t.Fatalf("%s: the peer layout does not match", sh.name)
		}
		Encode(sh.dt) // the one encoding
		pins := []struct {
			call string
			fn   func()
		}{
			{"PackInto", func() { _ = PackInto(wire, mem, sh.count, sh.dt, LittleEndian) }},
			{"Unpack", func() { _ = Unpack(mem, wire, sh.count, sh.dt, LittleEndian) }},
			{"Compatible with itself", func() { _ = Compatible(sh.count, sh.dt, sh.count, sh.dt) }},
			{"Compatible with a peer", func() { _ = Compatible(sh.count, sh.dt, peerCount, sh.peer) }},
			{"Encode", func() { _ = Encode(sh.dt) }},
		}
		for _, p := range pins {
			if got := testing.AllocsPerRun(100, p.fn); got != 0 {
				t.Errorf("%s %s: %v allocs per call, want 0", p.call, sh.name, got)
			}
		}
	}
}
