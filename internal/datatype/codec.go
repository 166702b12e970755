package datatype

import (
	"encoding/binary"
	"fmt"
)

// Wire codec for datatypes. RMA implementations that honour a
// target-side datatype must ship the type description with the request
// (the origin names the target layout; the target has never seen it).
// Encode/Decode serialize the type tree compactly; the description rides
// in the RMA message header area of the core protocol.

// Type tree tags.
const (
	tagPrimitive byte = 1
	tagContig    byte = 2
	tagVector    byte = 3
	tagIndexed   byte = 4
	tagStruct    byte = 5
)

// Decode-side sanity bounds. The encoding arrives from the network, so a
// malicious or corrupt description must not be able to allocate unbounded
// memory or overflow extent arithmetic (a fuzzer found exactly that: a
// 10-byte Indexed header claiming 2^60 blocks).
const (
	// maxDecodeValue bounds any decoded count, block length,
	// displacement, stride, offset — keeps extents within int range.
	maxDecodeValue = 1 << 31
	// maxDecodeBlocks bounds Indexed block and Struct field counts before
	// their slices are allocated (further bounded by the buffer length:
	// every block costs at least two encoded bytes).
	maxDecodeBlocks = 1 << 20
	// maxDecodeExtent bounds the size and the extent of every decoded type,
	// nested ones included. Each value is bounded on its own, but nesting
	// multiplies them: eleven nested Contiguous(48, ...) wrap int64.
	maxDecodeExtent = 1 << 40
)

// scales reports whether n instances of base stay within maxDecodeExtent,
// in size and in extent, without computing a product that could wrap.
func scales(n uint64, base Type) bool {
	for _, x := range [2]int{base.Size(), base.Extent()} {
		if x > 0 && n > maxDecodeExtent/uint64(x) {
			return false
		}
	}
	return true
}

func errTooLarge(what string) error {
	return fmt.Errorf("datatype: decoded %s exceeds %d bytes", what, maxDecodeExtent)
}

// primitiveEncodings holds every primitive's two-byte wire form.
var primitiveEncodings = func() (enc [KFloat64 + 1][2]byte) {
	for k := range enc {
		enc[k] = [2]byte{tagPrimitive, byte(k)}
	}
	return enc
}()

// Encode serializes t. The bytes are computed once per type value and
// shared by every caller, which must not modify them.
func Encode(t Type) []byte {
	m := t.cache()
	if m == nil {
		return primitiveEncodings[t.(primitive).kind][:]
	}
	m.encOnce.Do(func() { m.enc = appendType(nil, t) })
	return m.enc
}

func appendType(out []byte, t Type) []byte {
	switch x := t.(type) {
	case primitive:
		out = append(out, tagPrimitive, byte(x.kind))
	case *contiguous:
		out = append(out, tagContig)
		out = binary.AppendUvarint(out, uint64(x.count))
		out = appendType(out, x.base)
	case *vector:
		out = append(out, tagVector)
		out = binary.AppendUvarint(out, uint64(x.count))
		out = binary.AppendUvarint(out, uint64(x.blocklen))
		out = binary.AppendUvarint(out, uint64(x.stride))
		out = appendType(out, x.base)
	case *indexed:
		out = append(out, tagIndexed)
		out = binary.AppendUvarint(out, uint64(len(x.displs)))
		for i := range x.displs {
			out = binary.AppendUvarint(out, uint64(x.blocklens[i]))
			out = binary.AppendUvarint(out, uint64(x.displs[i]))
		}
		out = appendType(out, x.base)
	case *structT:
		out = append(out, tagStruct)
		out = binary.AppendUvarint(out, uint64(len(x.fields)))
		for _, f := range x.fields {
			out = binary.AppendUvarint(out, uint64(f.Offset))
			out = binary.AppendUvarint(out, uint64(f.Count))
			out = appendType(out, f.Type)
		}
	default:
		panic(fmt.Sprintf("datatype: cannot encode type %T", t))
	}
	return out
}

// Decode deserializes a type from the front of buf, returning the type and
// the number of bytes consumed.
func Decode(buf []byte) (Type, int, error) { return decodeType(buf) }

func decodeUvarint(buf []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("datatype: truncated varint at offset %d", pos)
	}
	if v > maxDecodeValue {
		return 0, 0, fmt.Errorf("datatype: decoded value %d exceeds the sanity bound", v)
	}
	return v, pos + n, nil
}

func decodeType(buf []byte) (Type, int, error) {
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("datatype: empty type encoding")
	}
	switch buf[0] {
	case tagPrimitive:
		if len(buf) < 2 {
			return nil, 0, fmt.Errorf("datatype: truncated primitive encoding")
		}
		k := Kind(buf[1])
		if k > KFloat64 {
			return nil, 0, fmt.Errorf("datatype: unknown primitive kind %d", buf[1])
		}
		return primitive{k}, 2, nil
	case tagContig:
		count, pos, err := decodeUvarint(buf, 1)
		if err != nil {
			return nil, 0, err
		}
		base, n, err := decodeType(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		if !scales(count, base) {
			return nil, 0, errTooLarge("contiguous type")
		}
		return &contiguous{count: int(count), base: base}, pos + n, nil
	case tagVector:
		count, pos, err := decodeUvarint(buf, 1)
		if err != nil {
			return nil, 0, err
		}
		blocklen, pos, err := decodeUvarint(buf, pos)
		if err != nil {
			return nil, 0, err
		}
		stride, pos, err := decodeUvarint(buf, pos)
		if err != nil {
			return nil, 0, err
		}
		base, n, err := decodeType(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		if int(stride) < int(blocklen) {
			return nil, 0, fmt.Errorf("datatype: decoded vector stride %d < blocklen %d", stride, blocklen)
		}
		// The extent's multiplier bounds the size's too: stride >= blocklen.
		if count > 0 && !scales((count-1)*stride+blocklen, base) {
			return nil, 0, errTooLarge("vector type")
		}
		return &vector{count: int(count), blocklen: int(blocklen), stride: int(stride), base: base}, pos + n, nil
	case tagIndexed:
		nblocks, pos, err := decodeUvarint(buf, 1)
		if err != nil {
			return nil, 0, err
		}
		// Each block costs at least two encoded bytes; reject counts the
		// buffer cannot possibly carry before allocating.
		if nblocks > maxDecodeBlocks || nblocks > uint64(len(buf))/2+1 {
			return nil, 0, fmt.Errorf("datatype: indexed type claims %d blocks in a %d-byte encoding", nblocks, len(buf))
		}
		blocklens := make([]int, nblocks)
		displs := make([]int, nblocks)
		var end, total uint64 // extent and size in base instances
		for i := range blocklens {
			var b, d uint64
			b, pos, err = decodeUvarint(buf, pos)
			if err != nil {
				return nil, 0, err
			}
			d, pos, err = decodeUvarint(buf, pos)
			if err != nil {
				return nil, 0, err
			}
			blocklens[i] = int(b)
			displs[i] = int(d)
			end, total = max(end, d+b), total+b
		}
		base, n, err := decodeType(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		if !scales(max(end, total), base) {
			return nil, 0, errTooLarge("indexed type")
		}
		return Indexed(blocklens, displs, base), pos + n, nil
	case tagStruct:
		nfields, pos, err := decodeUvarint(buf, 1)
		if err != nil {
			return nil, 0, err
		}
		// Each field costs at least four encoded bytes (two varints plus
		// a nested type of two bytes minimum).
		if nfields > maxDecodeBlocks || nfields > uint64(len(buf))/4+1 {
			return nil, 0, fmt.Errorf("datatype: struct type claims %d fields in a %d-byte encoding", nfields, len(buf))
		}
		fields := make([]Field, nfields)
		for i := range fields {
			var off, cnt uint64
			off, pos, err = decodeUvarint(buf, pos)
			if err != nil {
				return nil, 0, err
			}
			cnt, pos, err = decodeUvarint(buf, pos)
			if err != nil {
				return nil, 0, err
			}
			ft, n, err := decodeType(buf[pos:])
			if err != nil {
				return nil, 0, err
			}
			if !scales(cnt, ft) {
				return nil, 0, errTooLarge("struct field")
			}
			pos += n
			fields[i] = Field{Offset: int(off), Count: int(cnt), Type: ft}
		}
		// Each field is bounded, so the sums below cannot wrap.
		t := Struct(fields)
		if t.Size() > maxDecodeExtent || t.Extent() > maxDecodeExtent {
			return nil, 0, errTooLarge("struct type")
		}
		return t, pos, nil
	default:
		return nil, 0, fmt.Errorf("datatype: unknown type tag %d", buf[0])
	}
}

// Walk exposes the contiguous-segment iteration of one instance of t: fn
// is called, in layout order, for every run of n same-kind elements at
// byte offset off from the instance start.
func Walk(t Type, fn func(off, n int, k Kind)) { WalkN(1, t, fn) }

// WalkN is Walk over count consecutive instances of t, offsets relative to
// the first: a Cursor driven to the end, for callers off the per-operation
// path that prefer a callback. count instances of a dense type are one run.
func WalkN(count int, t Type, fn func(off, n int, k Kind)) {
	var c Cursor
	c.Reset(count, t)
	for off, n, k, ok := c.Next(); ok; off, n, k, ok = c.Next() {
		fn(off, n, k)
	}
}
