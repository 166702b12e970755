package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
)

// TargetMem is the object representing remotely accessible memory (the
// paper's target_mem). Unlike an MPI-2 window it is created by the owner
// alone — nothing collective — and the owner is responsible for passing
// the descriptor to the processes that will access the memory (Section V).
//
// The descriptor is a plain value: it can be shipped through ordinary
// point-to-point messages with Encode/Decode. It carries the owner's
// address-space width and byte order so that origins in a different
// address space or endianness (Section III-B3's hybrid systems) can still
// form correct accesses.
type TargetMem struct {
	// Owner is the world rank that exposed the memory.
	Owner int
	// Handle identifies the exposure within the owner's engine.
	Handle uint64
	// Size is the exposed memory's size in bytes.
	Size int
	// AddrBits is the owner's address-space width (32 or 64); a 32-bit
	// target cannot expose memory beyond 4 GiB and displacements are
	// validated against it.
	AddrBits uint8
	// Order is the owner's memory byte order; the engine converts wire
	// data to it on delivery.
	Order datatype.ByteOrder
}

// Valid reports whether the descriptor looks structurally sound.
func (tm TargetMem) Valid() bool {
	return tm.Owner >= 0 && tm.Size >= 0 && (tm.AddrBits == 32 || tm.AddrBits == 64)
}

// encodedTargetMemLen is the fixed wire size of a TargetMem descriptor.
const encodedTargetMemLen = 8 + 8 + 8 + 1 + 1

// Encode serializes the descriptor for shipping to other ranks.
func (tm TargetMem) Encode() []byte {
	out := make([]byte, encodedTargetMemLen)
	binary.LittleEndian.PutUint64(out[0:], uint64(int64(tm.Owner)))
	binary.LittleEndian.PutUint64(out[8:], tm.Handle)
	binary.LittleEndian.PutUint64(out[16:], uint64(int64(tm.Size)))
	out[24] = tm.AddrBits
	out[25] = byte(tm.Order)
	return out
}

// DecodeTargetMem reverses Encode.
func DecodeTargetMem(buf []byte) (TargetMem, error) {
	if len(buf) != encodedTargetMemLen {
		return TargetMem{}, fmt.Errorf("core: target_mem descriptor is %d bytes, want %d: %w", len(buf), encodedTargetMemLen, ErrBadHandle)
	}
	tm := TargetMem{
		Owner:    int(int64(binary.LittleEndian.Uint64(buf[0:]))),
		Handle:   binary.LittleEndian.Uint64(buf[8:]),
		Size:     int(int64(binary.LittleEndian.Uint64(buf[16:]))),
		AddrBits: buf[24],
		Order:    datatype.ByteOrder(buf[25]),
	}
	if !tm.Valid() {
		return TargetMem{}, fmt.Errorf("core: decoded invalid target_mem descriptor %+v: %w", tm, ErrBadHandle)
	}
	return tm, nil
}

// ExchangeTargetMem is the descriptor all-gather every collective exposure
// is built on: each member of comm contributes tm and receives all
// members' descriptors, indexed by comm rank.
func ExchangeTargetMem(comm *runtime.Comm, tm TargetMem) ([]TargetMem, error) {
	parts := comm.Gather(0, tm.Encode())
	var flat []byte
	if comm.Rank() == 0 {
		flat = bytes.Join(parts, nil)
	}
	flat = comm.Bcast(0, flat)
	const per = encodedTargetMemLen
	if len(flat) != comm.Size()*per {
		return nil, fmt.Errorf("core: descriptor exchange returned %d bytes for %d ranks: %w", len(flat), comm.Size(), ErrEpoch)
	}
	tms := make([]TargetMem, comm.Size())
	for i := range tms {
		var err error
		if tms[i], err = DecodeTargetMem(flat[i*per : (i+1)*per]); err != nil {
			return nil, err
		}
	}
	return tms, nil
}

// exposure is the owner-side state behind a TargetMem handle, immutable
// once published. tracked marks a replicated one: exposed while buddy
// replication was on, or rebuilt onto this spare (replication.go).
type exposure struct {
	region  memsim.Region
	tracked bool
}

// Expose associates an existing region of the caller's memory with a new
// target-memory object and returns its descriptor. This is the paper's
// "interface to associate existing user memory (heap/stack) to a
// target_mem object"; it involves no other rank.
func (e *Engine) Expose(region memsim.Region) TargetMem {
	e.mu.Lock()
	e.tmemSeq++
	h := e.tmemSeq
	e.mu.Unlock()
	// Mirror the new exposure to the buddy (a no-op unless
	// EnableReplication was called; see replication.go). Nobody holds the
	// handle before Expose returns, so it is published after.
	exp := &exposure{region: region, tracked: e.replOnExpose(h, region)}
	e.mu.Lock()
	e.exps.set(h, exp, false)
	e.mu.Unlock()
	return TargetMem{
		Owner:    e.proc.Rank(),
		Handle:   h,
		Size:     region.Size,
		AddrBits: e.opts.AddrBits,
		Order:    e.proc.ByteOrder(),
	}
}

// ExposeNew allocates size bytes of fresh memory and exposes them,
// returning the descriptor and the local region (the paper's collective
// allocation interfaces were still under discussion; allocation here is
// local, matching requirement 1).
func (e *Engine) ExposeNew(size int) (TargetMem, memsim.Region) {
	region := e.proc.Alloc(size)
	return e.Expose(region), region
}

// Retract withdraws an exposure: subsequent remote accesses through the
// handle fail at the target. The paper leaves deallocation interfaces
// open; Retract is the minimal owner-side revocation.
func (e *Engine) Retract(tm TargetMem) error {
	if tm.Owner != e.proc.Rank() {
		return fmt.Errorf("core: rank %d cannot retract target_mem owned by rank %d: %w", e.proc.Rank(), tm.Owner, ErrBadHandle)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lookupExposure(tm.Handle) == nil {
		return fmt.Errorf("core: target_mem handle %d not exposed: %w", tm.Handle, ErrBadHandle)
	}
	e.exps.set(tm.Handle, nil, true)
	return nil
}

// lookupExposure resolves a handle at the target side, with no lock.
func (e *Engine) lookupExposure(h uint64) *exposure { return e.exps.get(h) }
