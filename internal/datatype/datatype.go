// Package datatype implements an MPI-style datatype engine.
//
// The strawman RMA interface (paper Section IV, requirement 7) reuses MPI
// datatypes so that noncontiguous data — strided vectors, scatter/gather
// index lists — and heterogeneous systems (Section III-B3: special-purpose
// PEs with different endianness) are both supported by the same transfer
// calls.
//
// A Type describes a layout of typed elements over a byte buffer. Transfers
// pack the origin layout into a canonical wire format (little-endian,
// densely packed, elements in layout order) and unpack at the target into
// the target layout, converting byte order per rank. Type signatures (the
// flattened sequence of element kinds) must match between origin and
// target, exactly as MPI requires.
package datatype

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// ByteOrder is the endianness of a rank's memory representation.
type ByteOrder int

const (
	// LittleEndian ranks store multi-byte elements least-significant first.
	LittleEndian ByteOrder = iota
	// BigEndian ranks store multi-byte elements most-significant first.
	// The wire format is little-endian, so big-endian ranks byte-swap on
	// pack and unpack — modelling the POWER-host + commodity-GPU mix the
	// paper warns about.
	BigEndian
)

// String returns the byte order's name.
func (o ByteOrder) String() string {
	if o == BigEndian {
		return "big-endian"
	}
	return "little-endian"
}

// Uint64 decodes the 8-byte word at b stored in order o.
func (o ByteOrder) Uint64(b []byte) uint64 {
	if o == BigEndian {
		return binary.BigEndian.Uint64(b)
	}
	return binary.LittleEndian.Uint64(b)
}

// PutUint64 encodes v into the 8 bytes at b in order o.
func (o ByteOrder) PutUint64(b []byte, v uint64) {
	if o == BigEndian {
		binary.BigEndian.PutUint64(b, v)
	} else {
		binary.LittleEndian.PutUint64(b, v)
	}
}

// Kind identifies a primitive element type.
type Kind uint8

const (
	// KByte is a raw byte (no swap needed).
	KByte Kind = iota
	// KInt32 is a 4-byte signed integer.
	KInt32
	// KInt64 is an 8-byte signed integer.
	KInt64
	// KFloat32 is a 4-byte IEEE-754 float.
	KFloat32
	// KFloat64 is an 8-byte IEEE-754 float.
	KFloat64
)

// Width returns the element width in bytes.
func (k Kind) Width() int {
	switch k {
	case KByte:
		return 1
	case KInt32, KFloat32:
		return 4
	case KInt64, KFloat64:
		return 8
	default:
		panic(fmt.Sprintf("datatype: unknown kind %d", k))
	}
}

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KByte:
		return "byte"
	case KInt32:
		return "int32"
	case KInt64:
		return "int64"
	case KFloat32:
		return "float32"
	case KFloat64:
		return "float64"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Type describes a data layout. Implementations are immutable and safe for
// concurrent use.
type Type interface {
	// Size is the number of bytes of actual data in one instance of the
	// type (the packed size).
	Size() int
	// Extent is the span of memory one instance covers, including holes;
	// instance i of a count-N transfer begins at offset i*Extent().
	Extent() int
	// Name returns a human-readable description.
	Name() string
	// part returns the j-th constituent of one instance of the type placed
	// at byte offset at, as a block for the iterator to descend into, and
	// false past the last one. A dense type has none: it is a run.
	part(j, at int) (block, bool)
	// dense reports whether one instance is a single hole-free run of n
	// elements of kind k starting at offset 0 (so Extent == Size ==
	// n*k.Width(), and count instances form one run of count*n elements).
	// The answer is structural, read off the constructor arguments:
	// Size() == Extent() is not a proof, because Indexed and Struct maps
	// may revisit or reorder bytes, so those are never dense.
	dense() (k Kind, n int, ok bool)
	// cache returns what the type computes once, or nil for a primitive,
	// which has nothing worth keeping.
	cache() *memo
}

// block is the iterator's unit, a vector's shape: nblocks blocks of count
// consecutive instances of t, block b starting at byte offset at+b*step.
// count plain instances (one block) is the common case.
type block struct {
	at, nblocks, step, count int
	t                        Type
}

// frame is a block being iterated: how far it has got, and what push read
// off its type once — a dense type is one run of n elements per block,
// anything else is descended into instance by instance, part by part.
type frame struct {
	block
	b, i, j int // next block, instance within it, part within that
	ext     int // t.Extent(), when not dense
	n       int // elements per run, when dense
	k       Kind
	isDense bool
}

// Cursor is the package's one layout iterator: it yields, in layout order,
// every run of same-kind elements of count instances of a type, and unlike
// a callback walk it keeps its position in itself, so a transfer loop over
// it builds no closure and allocates nothing (types nested deeper than the
// inline stack spill to the heap). Next yields one run at a time;
// NextBlocks yields a dense block's runs as one evenly spaced group, for a
// copy loop that steps the layout once per group. The zero value is
// empty; Reset aims it.
type Cursor struct {
	depth int
	stack [4]frame
	spill []frame
}

// Reset aims the cursor at count consecutive instances of t, offsets
// relative to the first.
func (c *Cursor) Reset(count int, t Type) {
	c.depth, c.spill = 0, c.spill[:0]
	c.push(block{0, 1, 0, count, t})
}

// push enters blk, unless it holds no element at all.
func (c *Cursor) push(blk block) {
	k, n, dense := blk.t.dense()
	if blk.nblocks <= 0 || blk.count <= 0 || dense && n == 0 {
		return
	}
	// Filled in place rather than built aside and copied: a frame is
	// thirteen words, pushed once per instance of a nested type.
	var f *frame
	if c.depth < len(c.stack) {
		f = &c.stack[c.depth]
	} else {
		c.spill = append(c.spill[:c.depth-len(c.stack)], frame{})
		f = &c.spill[len(c.spill)-1]
	}
	f.block, f.b, f.i, f.j, f.ext, f.n, f.k, f.isDense = blk, 0, 0, 0, 0, n*blk.count, k, dense
	if !dense {
		f.ext = blk.t.Extent()
	}
	c.depth++
}

// top returns the innermost frame.
func (c *Cursor) top() *frame {
	if c.depth <= len(c.stack) {
		return &c.stack[c.depth-1]
	}
	return &c.spill[c.depth-1-len(c.stack)]
}

// Next returns the next run — n elements of kind k at byte offset off — or
// ok false once the layout is exhausted.
func (c *Cursor) Next() (off, n int, k Kind, ok bool) {
	f := c.runs()
	if f == nil {
		return 0, 0, 0, false
	}
	f.b++
	return f.at + (f.b-1)*f.step, f.n, f.k, true
}

// NextBlocks returns the next group of runs — nblocks runs of n elements
// of kind k, run b at byte offset off+b*step — or ok false once the layout
// is exhausted. A group is all that is left of one dense block, so a
// vector of single elements is one step, not one per element. Next and
// NextBlocks may be mixed.
func (c *Cursor) NextBlocks() (off, n int, k Kind, nblocks, step int, ok bool) {
	f := c.runs()
	if f == nil {
		return 0, 0, 0, 0, 0, false
	}
	off, nblocks = f.at+f.b*f.step, f.nblocks-f.b
	f.b = f.nblocks
	return off, f.n, f.k, nblocks, f.step, true
}

// runs descends to the innermost dense frame with blocks left and returns
// it, or nil once the layout is exhausted.
func (c *Cursor) runs() *frame {
	for c.depth > 0 {
		f := c.top()
		switch {
		case f.b >= f.nblocks:
			c.depth--
		case f.isDense:
			return f
		default:
			blk, more := f.t.part(f.j, f.at+f.b*f.step+f.i*f.ext)
			if more {
				f.j++
				c.push(blk) // may move the spill: f is dead from here
			} else if f.j, f.i = 0, f.i+1; f.i >= f.count {
				f.i, f.b = 0, f.b+1
			}
		}
	}
	return nil
}

// Group is one step of a layout walk: Blocks runs of Bytes bytes of
// Width-byte elements, run b at byte offset Off+b*Step.
type Group struct{ Off, Bytes, Width, Blocks, Step int }

// maxPlanGroups bounds the walk that builds a plan: a layout whose one
// instance takes more NextBlocks groups, counted before abutting runs
// merge, keeps no plan and is walked by the Cursor on every use. So a
// decoded description claiming 2^31 groups costs O(1) time and memory to
// plan, however many of them would merge.
const maxPlanGroups = 64

// memo is what a derived type computes once, on first use, and shares
// with every transfer that uses it: its wire form (codec.go) and its plan,
// NextBlocks' groups over one instance with abutting runs merged. A type
// is immutable, so neither is ever invalidated.
type memo struct {
	encOnce, planOnce sync.Once
	enc               []byte
	plan              []Group
	ext               int  // one instance's extent
	planned           bool // false past maxPlanGroups
}

func (m *memo) cache() *memo { return m }

// planOf returns t's plan and instance extent, building them on first
// use, or ok false when one instance takes more than maxPlanGroups groups.
func (m *memo) planOf(t Type) (plan []Group, ext int, ok bool) {
	m.planOnce.Do(func() {
		var c Cursor
		c.Reset(1, t)
		steps := 0
		for off, n, k, nb, step, ok := c.NextBlocks(); ok; off, n, k, nb, step, ok = c.NextBlocks() {
			if steps++; steps > maxPlanGroups {
				m.plan = nil
				return
			}
			g := Group{off, n * k.Width(), k.Width(), nb, step}
			if l := len(m.plan) - 1; l >= 0 && nb == 1 && m.plan[l].Blocks == 1 &&
				m.plan[l].Width == g.Width && m.plan[l].Off+m.plan[l].Bytes == off {
				m.plan[l].Bytes += g.Bytes
				continue
			}
			m.plan = append(m.plan, g)
		}
		m.ext, m.planned = t.Extent(), true
	})
	return m.plan, m.ext, m.planned
}

// --- Predefined types -------------------------------------------------

type primitive struct {
	kind Kind
}

func (p primitive) Size() int                   { return p.kind.Width() }
func (p primitive) Extent() int                 { return p.kind.Width() }
func (p primitive) Name() string                { return p.kind.String() }
func (p primitive) part(int, int) (block, bool) { return block{}, false }
func (p primitive) dense() (Kind, int, bool)    { return p.kind, 1, true }
func (p primitive) cache() *memo                { return nil }

// Predefined primitive types.
var (
	Byte    Type = primitive{KByte}
	Int32   Type = primitive{KInt32}
	Int64   Type = primitive{KInt64}
	Float32 Type = primitive{KFloat32}
	Float64 Type = primitive{KFloat64}
)

// --- Derived types ----------------------------------------------------

type contiguous struct {
	count int
	base  Type
	memo
}

// Contiguous returns a type of count consecutive instances of base.
func Contiguous(count int, base Type) Type {
	if count < 0 {
		panic("datatype: Contiguous count must be non-negative")
	}
	return &contiguous{count: count, base: base}
}

func (t *contiguous) Size() int   { return t.count * t.base.Size() }
func (t *contiguous) Extent() int { return t.count * t.base.Extent() }
func (t *contiguous) Name() string {
	return fmt.Sprintf("contiguous(%d,%s)", t.count, t.base.Name())
}
func (t *contiguous) part(j, at int) (block, bool) {
	return block{at, 1, 0, t.count, t.base}, j == 0
}
func (t *contiguous) dense() (Kind, int, bool) {
	k, n, ok := t.base.dense()
	return k, t.count * n, ok
}

type vector struct {
	count    int // number of blocks
	blocklen int // base instances per block
	stride   int // base extents between block starts
	base     Type
	memo
}

// Vector returns a strided type: count blocks of blocklen consecutive base
// instances, with block starts separated by stride base extents. This is
// the classic MPI_Type_vector used for matrix columns and halo faces.
func Vector(count, blocklen, stride int, base Type) Type {
	if count < 0 || blocklen < 0 {
		panic("datatype: Vector count and blocklen must be non-negative")
	}
	if stride < blocklen {
		panic("datatype: Vector stride must be >= blocklen (overlapping blocks are not supported)")
	}
	return &vector{count: count, blocklen: blocklen, stride: stride, base: base}
}

func (t *vector) Size() int { return t.count * t.blocklen * t.base.Size() }
func (t *vector) Extent() int {
	if t.count == 0 {
		return 0
	}
	return ((t.count-1)*t.stride + t.blocklen) * t.base.Extent()
}
func (t *vector) Name() string {
	return fmt.Sprintf("vector(%d,%d,%d,%s)", t.count, t.blocklen, t.stride, t.base.Name())
}
func (t *vector) part(j, at int) (block, bool) {
	return block{at, t.count, t.stride * t.base.Extent(), t.blocklen, t.base}, j == 0
}

// A vector is dense when its blocks abut (stride == blocklen) or there is
// at most one of them, over a dense base.
func (t *vector) dense() (Kind, int, bool) {
	k, n, ok := t.base.dense()
	return k, t.count * t.blocklen * n, ok && (t.stride == t.blocklen || t.count <= 1)
}

type indexed struct {
	blocklens []int // base instances per block
	displs    []int // block displacements in base extents
	base      Type
	extent    int
	memo
}

// Indexed returns a scatter/gather type: len(displs) blocks, block i
// holding blocklens[i] consecutive base instances at displacement
// displs[i] (in base extents). Displacements must be non-negative and the
// blocks must not overlap, but need not be sorted.
func Indexed(blocklens, displs []int, base Type) Type {
	if len(blocklens) != len(displs) {
		panic("datatype: Indexed blocklens and displs must have equal length")
	}
	ext := 0
	for i, d := range displs {
		if d < 0 || blocklens[i] < 0 {
			panic("datatype: Indexed displacements and block lengths must be non-negative")
		}
		if end := d + blocklens[i]; end > ext {
			ext = end
		}
	}
	return &indexed{
		blocklens: append([]int(nil), blocklens...),
		displs:    append([]int(nil), displs...),
		base:      base,
		extent:    ext * base.Extent(),
	}
}

func (t *indexed) Size() int {
	n := 0
	for _, b := range t.blocklens {
		n += b
	}
	return n * t.base.Size()
}
func (t *indexed) Extent() int { return t.extent }
func (t *indexed) Name() string {
	return fmt.Sprintf("indexed(%d blocks,%s)", len(t.displs), t.base.Name())
}
func (t *indexed) part(j, at int) (block, bool) {
	if j >= len(t.displs) {
		return block{}, false
	}
	return block{at + t.displs[j]*t.base.Extent(), 1, 0, t.blocklens[j], t.base}, true
}
func (t *indexed) dense() (Kind, int, bool) { return 0, 0, false }

// Field is one member of a Struct type.
type Field struct {
	// Offset is the field's byte offset from the instance start.
	Offset int
	// Count is the number of consecutive Type instances at Offset.
	Count int
	// Type is the field's element type.
	Type Type
}

type structT struct {
	fields []Field
	extent int
	memo
}

// Struct returns a heterogeneous record type assembled from fields, like
// MPI_Type_create_struct. The extent is the end of the furthest field
// unless a larger one is implied by alignment the caller bakes into the
// offsets.
func Struct(fields []Field) Type {
	ext := 0
	for _, f := range fields {
		if f.Offset < 0 || f.Count < 0 {
			panic("datatype: Struct field offsets and counts must be non-negative")
		}
		if end := f.Offset + f.Count*f.Type.Extent(); end > ext {
			ext = end
		}
	}
	return &structT{fields: append([]Field(nil), fields...), extent: ext}
}

func (t *structT) Size() int {
	n := 0
	for _, f := range t.fields {
		n += f.Count * f.Type.Size()
	}
	return n
}
func (t *structT) Extent() int { return t.extent }
func (t *structT) Name() string {
	return fmt.Sprintf("struct(%d fields)", len(t.fields))
}
func (t *structT) part(j, at int) (block, bool) {
	if j >= len(t.fields) {
		return block{}, false
	}
	f := t.fields[j]
	return block{at + f.Offset, 1, 0, f.Count, f.Type}, true
}
func (t *structT) dense() (Kind, int, bool) { return 0, 0, false }
