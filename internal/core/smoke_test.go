package core

import (
	"bytes"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
)

// TestSmokePutGetComplete drives the full stack once: expose, ship the
// descriptor, put, complete, read back, get.
func TestSmokePutGetComplete(t *testing.T) {
	w := runtime.NewWorld(runtime.Config{Ranks: 3})
	defer w.Close()
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		const n = 64
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(n)
			enc := tm.Encode()
			for r := 1; r < p.Size(); r++ {
				p.Send(r, 1, enc)
			}
			e.CompleteCollective(comm)
			got := p.Mem().Snapshot(region.Offset, n)
			for i := 0; i < 32; i++ {
				if got[i] != byte(1) {
					t.Errorf("byte %d from rank 1 = %d, want 1", i, got[i])
					break
				}
			}
			for i := 32; i < 64; i++ {
				if got[i] != byte(2) {
					t.Errorf("byte %d from rank 2 = %d, want 2", i, got[i])
					break
				}
			}
			return
		}
		enc, _ := p.Recv(0, 1)
		tm, err := DecodeTargetMem(enc)
		if err != nil {
			t.Errorf("rank %d: decode: %v", p.Rank(), err)
			return
		}
		src := p.Alloc(32)
		p.WriteLocal(src, 0, bytes.Repeat([]byte{byte(p.Rank())}, 32))
		req, err := e.Put(src, 32, datatype.Byte, tm, (p.Rank()-1)*32, 32, datatype.Byte, 0, comm, AttrNone)
		if err != nil {
			t.Errorf("rank %d: put: %v", p.Rank(), err)
			return
		}
		req.Wait()
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("rank %d: complete: %v", p.Rank(), err)
		}
		e.CompleteCollective(comm)

		// Read the other origin's bytes back with a get.
		other := 3 - p.Rank() // 1<->2
		dst := p.Alloc(32)
		greq, err := e.Get(dst, 32, datatype.Byte, tm, (other-1)*32, 32, datatype.Byte, 0, comm, AttrNone)
		if err != nil {
			t.Errorf("rank %d: get: %v", p.Rank(), err)
			return
		}
		greq.Wait()
		got := p.ReadLocal(dst, 0, 32)
		for i, b := range got {
			if b != byte(other) {
				t.Errorf("rank %d: get byte %d = %d, want %d", p.Rank(), i, b, other)
				break
			}
		}
	})
}
