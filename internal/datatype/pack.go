package datatype

import "fmt"

// PackedSize returns the number of wire bytes count instances of t occupy.
func PackedSize(count int, t Type) int { return count * t.Size() }

// ExtentOf returns the number of buffer bytes count instances of t span.
func ExtentOf(count int, t Type) int {
	return count * t.Extent()
}

// Pack gathers count instances of t from src (laid out per the rank's
// order) into a fresh wire buffer in canonical (little-endian, dense)
// format and returns it.
func Pack(src []byte, count int, t Type, order ByteOrder) ([]byte, error) {
	dst := make([]byte, PackedSize(count, t))
	if err := PackInto(dst, src, count, t, order); err != nil {
		return nil, err
	}
	return dst, nil
}

// PackInto gathers count instances of t from src into dst in canonical
// wire format. dst must be exactly PackedSize(count, t) bytes.
func PackInto(dst, src []byte, count int, t Type, order ByteOrder) error {
	if len(dst) != PackedSize(count, t) {
		return fmt.Errorf("datatype: pack buffer is %d bytes, need %d", len(dst), PackedSize(count, t))
	}
	if need := ExtentOf(count, t); len(src) < need {
		return fmt.Errorf("datatype: source buffer is %d bytes, type %s x%d spans %d", len(src), t.Name(), count, need)
	}
	pos := 0
	EachGroup(count, t, func(g Group) {
		for off := g.Off; g.Blocks > 0; g.Blocks, off, pos = g.Blocks-1, off+g.Step, pos+g.Bytes {
			copyRun(dst[pos:pos+g.Bytes], src[off:off+g.Bytes], g.Width, order)
		}
	})
	if pos != len(dst) {
		return fmt.Errorf("datatype: internal error: packed %d of %d bytes", pos, len(dst))
	}
	return nil
}

// Unpack scatters wire (canonical format) into count instances of t in dst,
// converting elements to the rank's order.
func Unpack(dst []byte, wire []byte, count int, t Type, order ByteOrder) error {
	if len(wire) != PackedSize(count, t) {
		return fmt.Errorf("datatype: wire buffer is %d bytes, need %d", len(wire), PackedSize(count, t))
	}
	if need := ExtentOf(count, t); len(dst) < need {
		return fmt.Errorf("datatype: destination buffer is %d bytes, type %s x%d spans %d", len(dst), t.Name(), count, need)
	}
	pos := 0
	EachGroup(count, t, func(g Group) {
		for off := g.Off; g.Blocks > 0; g.Blocks, off, pos = g.Blocks-1, off+g.Step, pos+g.Bytes {
			copyRun(dst[off:off+g.Bytes], wire[pos:pos+g.Bytes], g.Width, order)
		}
	})
	if pos != len(wire) {
		return fmt.Errorf("datatype: internal error: unpacked %d of %d bytes", pos, len(wire))
	}
	return nil
}

// EachGroup calls fn, in layout order, with every group of runs of count
// instances of t, offsets relative to the first. count instances of a
// dense type are one run; any other type is walked through its plan, built
// on its first walk, or by a Cursor past maxPlanGroups. A caller that
// checks a buffer against the layout checks it first, so a description
// that fails the check never builds a plan, and no instance builds none.
func EachGroup(count int, t Type, fn func(Group)) {
	if count <= 0 {
		return
	}
	if k, n, ok := t.dense(); ok {
		if n *= count; n > 0 {
			fn(Group{0, n * k.Width(), k.Width(), 1, 0})
		}
		return
	}
	if plan, ext, ok := t.cache().planOf(t); ok {
		for at := 0; count > 0 && len(plan) > 0; count, at = count-1, at+ext {
			for _, g := range plan {
				g.Off += at
				fn(g)
			}
		}
		return
	}
	var c Cursor
	c.Reset(count, t)
	for off, n, k, nb, step, ok := c.NextBlocks(); ok; off, n, k, nb, step, ok = c.NextBlocks() {
		fn(Group{off, n * k.Width(), k.Width(), nb, step})
	}
}

// copyRun copies one run of w-wide elements between a rank's memory and the
// little-endian wire, in either direction: a big-endian rank byte-swaps
// every multi-byte element.
func copyRun(dst, src []byte, w int, order ByteOrder) {
	if order == BigEndian && w > 1 {
		swapCopy(dst, src, w)
	} else if len(src) == 8 {
		// One word, the strided case of a single int64 or float64 per
		// block: a memmove call costs more than the copy.
		*(*[8]byte)(dst) = [8]byte(src)
	} else {
		copy(dst, src)
	}
}

// swapCopy copies src to dst reversing the byte order of each w-wide
// element. dst and src must not overlap.
func swapCopy(dst, src []byte, w int) {
	for i := 0; i < len(src); i += w {
		for j := 0; j < w; j++ {
			dst[i+j] = src[i+w-1-j]
		}
	}
}

// Compatible reports whether a transfer of ocount instances of ot matches
// tcount instances of tt — identical flattened element sequences. Two
// dense sides are one run each, so kind and element total decide, and one
// type value against itself needs only the counts: the usual case of a
// strided transfer, which would otherwise spend on the walk below all it
// gains elsewhere (CHANGES.md, PR 23: strided_getput with and without).
// Otherwise the two layouts are walked in step and compared run against
// run. No signature is built.
func Compatible(ocount int, ot Type, tcount int, tt Type) bool {
	okind, on, odense := ot.dense()
	tkind, tn, tdense := tt.dense()
	if odense && tdense {
		return ocount*on == tcount*tn && (okind == tkind || ocount*on == 0)
	}
	if ot == tt && ocount == tcount {
		return true
	}
	var o, t Cursor
	o.Reset(ocount, ot)
	t.Reset(tcount, tt)
	// on and tn are what is left of each side's current run.
	on, tn = 0, 0
	for {
		var omore, tmore = true, true
		if on == 0 {
			_, on, okind, omore = o.Next()
		}
		if tn == 0 {
			_, tn, tkind, tmore = t.Next()
		}
		if !omore || !tmore {
			return omore == tmore
		}
		if okind != tkind {
			return false
		}
		n := min(on, tn)
		on, tn = on-n, tn-n
	}
}
