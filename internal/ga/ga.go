// Package ga implements a Global-Arrays-like toolkit (paper Section II
// and reference [17]: "Global Arrays: A non-uniform-memory-access
// programming model for high-performance computers") on top of the
// ARMCI-like layer — the same layering as the real Global Arrays toolkit,
// whose communication substrate is ARMCI (paper Section VI).
//
// A ga.Array is a dense 2-D float64 array block-distributed by rows over
// a communicator. Any rank may read (Get), write (Put) or accumulate
// (Acc) an arbitrary rectangular patch of the global index space without
// the owners' participation; patches that span owners decompose into one
// strided ARMCI operation per owner. Sync is the GA_Sync
// fence-plus-barrier.
package ga

import (
	"encoding/binary"
	"fmt"
	"math"

	"mpi3rma/internal/armci"
	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// Toolkit is one rank's GA library state.
type Toolkit struct {
	proc *runtime.Proc
	ac   *armci.ARMCI
}

// extKey is the Proc extension slot.
const extKey = "ga"

// Attach returns the rank's GA toolkit, creating it on first use.
func Attach(p *runtime.Proc) *Toolkit {
	return p.Ext(extKey, func() any {
		return &Toolkit{proc: p, ac: armci.Attach(p)}
	}).(*Toolkit)
}

// Array is a 2-D float64 global array distributed by row blocks.
type Array struct {
	tk   *Toolkit
	comm *runtime.Comm
	// Rows and Cols are the global dimensions.
	Rows, Cols int
	// rowsPer is the row-block size: owner of global row i is i/rowsPer
	// (the last owner may hold fewer rows).
	rowsPer int
	tms     []rma.TargetMem
	local   rma.Region
	scratch rma.Region
}

// Create collectively builds a rows x cols global array over comm. rows
// must be at least the number of ranks.
func (tk *Toolkit) Create(comm *runtime.Comm, rows, cols int) (*Array, error) {
	n := comm.Size()
	if rows < n || cols <= 0 {
		return nil, fmt.Errorf("ga: cannot distribute a %dx%d array over %d ranks", rows, cols, n)
	}
	rowsPer := (rows + n - 1) / n
	blockBytes := rowsPer * cols * 8 // uniform exposure simplifies addressing
	tms, local, err := tk.ac.Malloc(comm, blockBytes)
	if err != nil {
		return nil, err
	}
	return &Array{
		tk:      tk,
		comm:    comm,
		Rows:    rows,
		Cols:    cols,
		rowsPer: rowsPer,
		tms:     tms,
		local:   local,
		scratch: tk.proc.Alloc(rows * cols * 8), // large enough for any patch
	}, nil
}

// ownerOf returns the owner rank and owner-local row of a global row.
func (a *Array) ownerOf(row int) (rank, localRow int) {
	return row / a.rowsPer, row % a.rowsPer
}

// MyRows returns the half-open global row range this rank owns.
func (a *Array) MyRows() (lo, hi int) {
	lo = a.comm.Rank() * a.rowsPer
	hi = lo + a.rowsPer
	if hi > a.Rows {
		hi = a.Rows
	}
	if lo > a.Rows {
		lo = a.Rows
	}
	return lo, hi
}

// checkPatch validates a rectangular patch against the global shape.
func (a *Array) checkPatch(row, col, nrows, ncols int, buf []float64) error {
	if row < 0 || col < 0 || nrows <= 0 || ncols <= 0 || row+nrows > a.Rows || col+ncols > a.Cols {
		return fmt.Errorf("ga: patch [%d:%d,%d:%d) outside %dx%d array", row, row+nrows, col, col+ncols, a.Rows, a.Cols)
	}
	if len(buf) != nrows*ncols {
		return fmt.Errorf("ga: patch buffer holds %d elements, patch needs %d", len(buf), nrows*ncols)
	}
	return nil
}

// forEachOwner decomposes the patch row range into per-owner spans and
// invokes fn(owner, firstGlobalRow, firstLocalRow, numRows, bufRowOffset).
func (a *Array) forEachOwner(row, nrows int, fn func(owner, gRow, lRow, count, bufRow int) error) error {
	done := 0
	for done < nrows {
		g := row + done
		owner, lRow := a.ownerOf(g)
		span := a.rowsPer - lRow
		if span > nrows-done {
			span = nrows - done
		}
		if err := fn(owner, g, lRow, span, done); err != nil {
			return err
		}
		done += span
	}
	return nil
}

// stage copies float64s into the rank's scratch region, returning the
// staged byte count.
func (a *Array) stage(buf []float64) int {
	raw := make([]byte, len(buf)*8)
	for i, v := range buf {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	a.tk.proc.WriteLocal(a.scratch, 0, raw)
	return len(raw)
}

// unstage reads float64s back out of the scratch region.
func (a *Array) unstage(buf []float64) {
	raw := a.tk.proc.ReadLocal(a.scratch, 0, len(buf)*8)
	for i := range buf {
		buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
}

// Put writes the nrows x ncols patch at (row, col) from buf (row-major) —
// GA_Put. One strided ARMCI put per owner.
func (a *Array) Put(row, col, nrows, ncols int, buf []float64) error {
	if err := a.checkPatch(row, col, nrows, ncols, buf); err != nil {
		return err
	}
	a.stage(buf)
	return a.forEachOwner(row, nrows, func(owner, gRow, lRow, count, bufRow int) error {
		return a.tk.ac.PutS(a.scratch,
			armci.StridedSpec{Off: bufRow * ncols * 8, Strides: []int{ncols * 8}},
			a.tms[owner],
			armci.StridedSpec{Off: (lRow*a.Cols + col) * 8, Strides: []int{a.Cols * 8}},
			ncols*8, []int{count})
	})
}

// Get reads the nrows x ncols patch at (row, col) into buf (row-major) —
// GA_Get.
func (a *Array) Get(row, col, nrows, ncols int, buf []float64) error {
	if err := a.checkPatch(row, col, nrows, ncols, buf); err != nil {
		return err
	}
	err := a.forEachOwner(row, nrows, func(owner, gRow, lRow, count, bufRow int) error {
		return a.tk.ac.GetS(a.scratch,
			armci.StridedSpec{Off: bufRow * ncols * 8, Strides: []int{ncols * 8}},
			a.tms[owner],
			armci.StridedSpec{Off: (lRow*a.Cols + col) * 8, Strides: []int{a.Cols * 8}},
			ncols*8, []int{count})
	})
	if err != nil {
		return err
	}
	a.unstage(buf)
	return nil
}

// Acc accumulates scale*buf into the patch at (row, col) — GA_Acc, the
// daxpy accumulate, serialized at each owner.
func (a *Array) Acc(row, col, nrows, ncols int, scale float64, buf []float64) error {
	if err := a.checkPatch(row, col, nrows, ncols, buf); err != nil {
		return err
	}
	a.stage(buf)
	return a.forEachOwner(row, nrows, func(owner, gRow, lRow, count, bufRow int) error {
		return a.tk.ac.AccS(scale, a.scratch,
			armci.StridedSpec{Off: bufRow * ncols * 8, Strides: []int{ncols * 8}},
			a.tms[owner],
			armci.StridedSpec{Off: (lRow*a.Cols + col) * 8, Strides: []int{a.Cols * 8}},
			ncols*8, []int{count})
	})
}

// Fill sets every element this rank owns to v (collective; callers should
// Sync afterwards) — GA_Fill.
func (a *Array) Fill(v float64) {
	lo, hi := a.MyRows()
	if hi <= lo {
		return
	}
	raw := make([]byte, (hi-lo)*a.Cols*8)
	bits := math.Float64bits(v)
	for i := 0; i < len(raw); i += 8 {
		binary.LittleEndian.PutUint64(raw[i:], bits)
	}
	a.tk.proc.WriteLocal(a.local, 0, raw)
}

// Sync is GA_Sync: all outstanding operations complete everywhere, then a
// barrier over the array's communicator.
func (a *Array) Sync() error {
	if err := a.tk.ac.AllFence(); err != nil {
		return err
	}
	a.comm.Barrier()
	return nil
}

// Local returns this rank's block region (rowsPer x Cols, row-major; only
// MyRows rows are meaningful).
func (a *Array) Local() rma.Region { return a.local }
