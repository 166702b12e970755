package armci

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

func newWorld(t *testing.T, ranks int) *runtime.World {
	t.Helper()
	w := runtime.NewWorld(runtime.Config{Ranks: ranks})
	t.Cleanup(w.Close)
	return w
}

func TestMallocCollective(t *testing.T) {
	w := newWorld(t, 3)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, region, err := a.Malloc(p.Comm(), 128)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if len(tms) != 3 {
			t.Errorf("got %d descriptors", len(tms))
		}
		for r, tm := range tms {
			if tm.Owner != r || tm.Size != 128 {
				t.Errorf("descriptor %d: owner=%d size=%d", r, tm.Owner, tm.Size)
			}
		}
		if region.Size != 128 {
			t.Errorf("local region size %d", region.Size)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, region, err := a.Malloc(p.Comm(), 64)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() == 1 {
			src := p.Alloc(32)
			p.WriteLocal(src, 0, bytes.Repeat([]byte{0xAA}, 32))
			if err := a.Put(src, 0, tms[0], 16, 32); err != nil {
				t.Errorf("put: %v", err)
			}
			// Blocking put is ordered but only locally complete; fence for
			// remote completion.
			if err := a.Fence(0); err != nil {
				t.Errorf("fence: %v", err)
			}
			dst := p.Alloc(32)
			if err := a.Get(dst, 0, tms[0], 16, 32); err != nil {
				t.Errorf("get: %v", err)
			}
			if got := p.ReadLocal(dst, 0, 32); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 32)) {
				t.Error("get returned wrong data")
			}
		}
		a.Barrier()
		if p.Rank() == 0 {
			got := p.Mem().Snapshot(region.Offset+16, 32)
			if !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 32)) {
				t.Error("put did not land")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingHandles(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, _, err := a.Malloc(p.Comm(), 256)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() == 1 {
			src := p.Alloc(256)
			var handles []*rma.Request
			for i := 0; i < 4; i++ {
				h, err := a.PutNB(src, 0, tms[0], 0, 64)
				if err != nil {
					t.Errorf("putnb: %v", err)
					return
				}
				handles = append(handles, h)
			}
			for _, h := range handles {
				h.Wait()
				if !h.Test() {
					t.Error("handle incomplete after wait")
				}
			}
			dst := p.Alloc(64)
			h, err := a.GetNB(dst, 0, tms[0], 0, 64)
			if err != nil {
				t.Errorf("getnb: %v", err)
				return
			}
			if err := h.Await(); err != nil {
				t.Errorf("getnb: %v", err)
			}
		}
		a.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAccDaxpy: ARMCI accumulate is x += a*y with serialized application;
// the concurrent total is exact.
func TestAccDaxpy(t *testing.T) {
	const origins = 3
	const iters = 10
	w := newWorld(t, origins+1)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, region, err := a.Malloc(p.Comm(), 8)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() != 0 {
			src := p.Alloc(8)
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, math.Float64bits(1.0))
			p.WriteLocal(src, 0, buf)
			for i := 0; i < iters; i++ {
				if err := a.Acc(2.0, src, 0, tms[0], 0, 1); err != nil {
					t.Errorf("acc: %v", err)
				}
			}
		}
		a.Barrier()
		if p.Rank() == 0 {
			got := math.Float64frombits(binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset, 8)))
			want := float64(origins * iters * 2)
			if got != want {
				t.Errorf("acc total = %v, want %v", got, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPutSStrided2D: a 2-D strided put moves a 4x8-byte tile between
// differently-pitched buffers.
func TestPutSStrided2D(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, region, err := a.Malloc(p.Comm(), 256)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() == 1 {
			// Source: 4 rows of 8 bytes at pitch 16. Dest: pitch 32.
			src := p.Alloc(64)
			for row := 0; row < 4; row++ {
				p.WriteLocal(src, row*16, bytes.Repeat([]byte{byte(row + 1)}, 8))
			}
			err := a.PutS(src,
				StridedSpec{Off: 0, Strides: []int{16}},
				tms[0],
				StridedSpec{Off: 8, Strides: []int{32}},
				8, []int{4})
			if err != nil {
				t.Errorf("puts: %v", err)
			}
			a.Fence(0)
		}
		a.Barrier()
		if p.Rank() == 0 {
			for row := 0; row < 4; row++ {
				got := p.Mem().Snapshot(region.Offset+8+row*32, 8)
				if !bytes.Equal(got, bytes.Repeat([]byte{byte(row + 1)}, 8)) {
					t.Errorf("row %d = %v", row, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetSStrided(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, region, err := a.Malloc(p.Comm(), 128)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() == 0 {
			for row := 0; row < 3; row++ {
				p.WriteLocal(region, row*32, bytes.Repeat([]byte{byte(0x10 + row)}, 8))
			}
		}
		a.Barrier()
		if p.Rank() == 1 {
			dst := p.Alloc(24)
			err := a.GetS(dst,
				StridedSpec{Off: 0, Strides: []int{8}},
				tms[0],
				StridedSpec{Off: 0, Strides: []int{32}},
				8, []int{3})
			if err != nil {
				t.Errorf("gets: %v", err)
			}
			for row := 0; row < 3; row++ {
				got := p.ReadLocal(dst, row*8, 8)
				if !bytes.Equal(got, bytes.Repeat([]byte{byte(0x10 + row)}, 8)) {
					t.Errorf("row %d = %v", row, got)
				}
			}
		}
		a.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccSStrided(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, region, err := a.Malloc(p.Comm(), 64)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() == 1 {
			src := p.Alloc(16)
			buf := make([]byte, 16)
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(1))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(2))
			p.WriteLocal(src, 0, buf)
			// Two 8-byte blocks into target offsets 0 and 32.
			err := a.AccS(3.0, src,
				StridedSpec{Off: 0, Strides: []int{8}},
				tms[0],
				StridedSpec{Off: 0, Strides: []int{32}},
				8, []int{2})
			if err != nil {
				t.Errorf("accs: %v", err)
			}
		}
		a.Barrier()
		if p.Rank() == 0 {
			v0 := math.Float64frombits(binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset, 8)))
			v1 := math.Float64frombits(binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset+32, 8)))
			if v0 != 3 || v1 != 6 {
				t.Errorf("accs results %v, %v; want 3, 6", v0, v1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutVGetV(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, region, err := a.Malloc(p.Comm(), 64)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() == 1 {
			src := p.Alloc(12)
			p.WriteLocal(src, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
			err := a.PutV(src,
				[]Segment{{Off: 0, Len: 4}, {Off: 4, Len: 8}},
				tms[0],
				[]Segment{{Off: 0, Len: 6}, {Off: 20, Len: 6}})
			if err != nil {
				t.Errorf("putv: %v", err)
			}
			a.Fence(0)
			dst := p.Alloc(12)
			err = a.GetV(dst,
				[]Segment{{Off: 0, Len: 12}},
				tms[0],
				[]Segment{{Off: 0, Len: 6}, {Off: 20, Len: 6}})
			if err != nil {
				t.Errorf("getv: %v", err)
			}
			got := p.ReadLocal(dst, 0, 12)
			if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) {
				t.Errorf("getv = %v", got)
			}
		}
		a.Barrier()
		if p.Rank() == 0 {
			got := p.Mem().Snapshot(region.Offset, 6)
			if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6}) {
				t.Errorf("first segment %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutVLengthMismatch(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, _, err := a.Malloc(p.Comm(), 64)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() == 1 {
			src := p.Alloc(8)
			err := a.PutV(src, []Segment{{Off: 0, Len: 8}}, tms[0], []Segment{{Off: 0, Len: 4}})
			if err == nil {
				t.Error("length mismatch accepted")
			}
		}
		a.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStridedValidation(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, _, err := a.Malloc(p.Comm(), 64)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() == 1 {
			src := p.Alloc(64)
			if err := a.PutS(src, StridedSpec{Strides: []int{8}}, tms[0], StridedSpec{Strides: []int{8, 8}}, 8, []int{2}); err == nil {
				t.Error("stride/count arity mismatch accepted")
			}
			if err := a.AccS(1, src, StridedSpec{Strides: []int{8}}, tms[0], StridedSpec{Strides: []int{8}}, 5, []int{2}); err == nil {
				t.Error("non-float64 accumulate block accepted")
			}
		}
		a.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAccNB: the nonblocking accumulate is still serialized and exact.
func TestAccNB(t *testing.T) {
	w := newWorld(t, 3)
	const iters = 10
	err := w.Run(func(p *runtime.Proc) {
		a := Attach(p)
		tms, region, err := a.Malloc(p.Comm(), 8)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if p.Rank() != 0 {
			src := p.Alloc(8)
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, math.Float64bits(1.0))
			p.WriteLocal(src, 0, buf)
			var hs []*rma.Request
			for i := 0; i < iters; i++ {
				h, err := a.AccNB(1.0, src, 0, tms[0], 0, 1)
				if err != nil {
					t.Errorf("accnb: %v", err)
					return
				}
				hs = append(hs, h)
			}
			for _, h := range hs {
				h.Wait()
			}
		}
		a.Barrier()
		if p.Rank() == 0 {
			got := math.Float64frombits(binary.LittleEndian.Uint64(p.Mem().Snapshot(region.Offset, 8)))
			if got != float64(2*iters) {
				t.Errorf("total = %v, want %v", got, 2*iters)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
