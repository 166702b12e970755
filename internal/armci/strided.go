package armci

import (
	"fmt"

	"mpi3rma/rma"
)

// Strided and vector operations (ARMCI_PutS / ARMCI_GetS / ARMCI_AccS and
// ARMCI_PutV / ARMCI_GetV). ARMCI describes an N-dimensional strided
// transfer by a block size in bytes, a per-level count, and per-level
// byte strides for source and destination independently; a vector transfer
// is an explicit list of (offset, length) segments.
//
// Both are lowered onto Indexed layouts, one for the origin and one for the
// target (rma.WithTargetLayout) — which is precisely how the strawman
// proposal absorbs ARMCI's noncontiguous API into MPI datatypes.

// StridedSpec describes one side of an N-level strided transfer.
type StridedSpec struct {
	// Off is the starting byte offset.
	Off int
	// Strides are the byte strides of each level, innermost first
	// (len(Strides) == len(counts)).
	Strides []int
}

// stridedLayout expands a strided description into block displacements.
func stridedLayout(off int, blockBytes int, counts []int, strides []int) ([]int, []int, error) {
	if len(counts) != len(strides) {
		return nil, nil, fmt.Errorf("armci: %d counts but %d strides", len(counts), len(strides))
	}
	displs := []int{off}
	for lvl := len(counts) - 1; lvl >= 0; lvl-- {
		c, s := counts[lvl], strides[lvl]
		if c <= 0 {
			return nil, nil, fmt.Errorf("armci: non-positive count %d at level %d", c, lvl)
		}
		next := make([]int, 0, len(displs)*c)
		for _, d := range displs {
			for i := 0; i < c; i++ {
				next = append(next, d+i*s)
			}
		}
		displs = next
	}
	blocklens := make([]int, len(displs))
	for i := range blocklens {
		blocklens[i] = blockBytes
	}
	return blocklens, displs, nil
}

// PutS is ARMCI_PutS: an N-level strided put of blockBytes-byte blocks,
// counts[i] blocks at level i, with independent source and destination
// strides. Blocking and ordered.
func (a *ARMCI) PutS(src rma.Region, srcSpec StridedSpec, dst rma.TargetMem, dstSpec StridedSpec, blockBytes int, counts []int) error {
	sdt, ddt, err := stridedTypes(srcSpec, dstSpec, blockBytes, counts, rma.Byte)
	if err != nil {
		return err
	}
	_, err = a.s.Put(src, 1, sdt, dst, 0, rma.WithTargetLayout(1, ddt), rma.WithBlocking(), rma.WithOrdering())
	return err
}

// GetS is ARMCI_GetS: the strided get.
func (a *ARMCI) GetS(dst rma.Region, dstSpec StridedSpec, src rma.TargetMem, srcSpec StridedSpec, blockBytes int, counts []int) error {
	ddt, sdt, err := stridedTypes(dstSpec, srcSpec, blockBytes, counts, rma.Byte)
	if err != nil {
		return err
	}
	_, err = a.s.Get(dst, 1, ddt, src, 0, rma.WithTargetLayout(1, sdt), rma.WithBlocking(), rma.WithOrdering())
	return err
}

// AccS is ARMCI_AccS: the strided daxpy accumulate over float64 blocks
// (blockBytes must be a multiple of 8). Serialized.
func (a *ARMCI) AccS(scale float64, src rma.Region, srcSpec StridedSpec, dst rma.TargetMem, dstSpec StridedSpec, blockBytes int, counts []int) error {
	if blockBytes%8 != 0 {
		return fmt.Errorf("armci: AccS block of %d bytes is not a whole number of float64 elements", blockBytes)
	}
	sdt, ddt, err := stridedTypes(srcSpec, dstSpec, blockBytes, counts, rma.Float64)
	if err != nil {
		return err
	}
	_, err = a.s.AccumulateAxpy(scale, src, 1, sdt, dst, 0, rma.WithTargetLayout(1, ddt),
		rma.WithBlocking(), rma.WithOrdering(), rma.WithAtomic())
	return err
}

// stridedTypes builds the local and remote layouts of a strided transfer
// as Indexed types over elem: bytes for puts and gets, float64 for
// accumulates, so the daxpy combine sees elements.
func stridedTypes(local, remote StridedSpec, blockBytes int, counts []int, elem rma.Type) (rma.Type, rma.Type, error) {
	ldt, err := sideType(local, blockBytes, counts, elem)
	if err != nil {
		return nil, nil, err
	}
	rdt, err := sideType(remote, blockBytes, counts, elem)
	return ldt, rdt, err
}

// sideType builds one side's layout in units of elem.
func sideType(spec StridedSpec, blockBytes int, counts []int, elem rma.Type) (rma.Type, error) {
	blocklens, displs, err := stridedLayout(spec.Off, blockBytes, counts, spec.Strides)
	if err != nil {
		return nil, err
	}
	w := elem.Size()
	for i := range blocklens {
		if blocklens[i]%w != 0 || displs[i]%w != 0 {
			return nil, fmt.Errorf("armci: layout not %s-aligned (block %d bytes at offset %d)", elem.Name(), blocklens[i], displs[i])
		}
		blocklens[i] /= w
		displs[i] /= w
	}
	return rma.Indexed(blocklens, displs, elem), nil
}

// Segment is one (offset, length) piece of a vector operation.
type Segment struct {
	Off, Len int
}

// vectorType lowers a segment list to an Indexed byte layout.
func vectorType(segs []Segment) (rma.Type, int) {
	blocklens := make([]int, len(segs))
	displs := make([]int, len(segs))
	total := 0
	for i, s := range segs {
		blocklens[i] = s.Len
		displs[i] = s.Off
		total += s.Len
	}
	return rma.Indexed(blocklens, displs, rma.Byte), total
}

// PutV is ARMCI_PutV: scatter the source segments into the destination
// segments (total lengths must match). Blocking and ordered.
func (a *ARMCI) PutV(src rma.Region, srcSegs []Segment, dst rma.TargetMem, dstSegs []Segment) error {
	sdt, sn := vectorType(srcSegs)
	ddt, dn := vectorType(dstSegs)
	if sn != dn {
		return fmt.Errorf("armci: PutV source carries %d bytes but destination expects %d", sn, dn)
	}
	_, err := a.s.Put(src, 1, sdt, dst, 0, rma.WithTargetLayout(1, ddt), rma.WithBlocking(), rma.WithOrdering())
	return err
}

// GetV is ARMCI_GetV: gather the source segments of the remote memory into
// the local destination segments.
func (a *ARMCI) GetV(dst rma.Region, dstSegs []Segment, src rma.TargetMem, srcSegs []Segment) error {
	ddt, dn := vectorType(dstSegs)
	sdt, sn := vectorType(srcSegs)
	if sn != dn {
		return fmt.Errorf("armci: GetV source carries %d bytes but destination expects %d", sn, dn)
	}
	_, err := a.s.Get(dst, 1, ddt, src, 0, rma.WithTargetLayout(1, sdt), rma.WithBlocking(), rma.WithOrdering())
	return err
}
