package ga

import (
	"math/rand"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

func newWorld(t *testing.T, ranks int) *runtime.World {
	t.Helper()
	w := runtime.NewWorld(runtime.Config{Ranks: ranks})
	t.Cleanup(func() {
		if n := rma.LostRequests(w); n != 0 {
			t.Errorf("%d nonblocking requests lost: never observed, never completed", n)
		}
		w.Close()
	})
	return w
}

func TestCreateValidation(t *testing.T) {
	w := newWorld(t, 4)
	err := w.Run(func(p *runtime.Proc) {
		tk := Attach(p)
		if _, err := tk.Create(p.Comm(), 2, 8); err == nil {
			t.Error("array smaller than the rank count accepted")
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMyRowsPartition(t *testing.T) {
	w := newWorld(t, 3)
	err := w.Run(func(p *runtime.Proc) {
		tk := Attach(p)
		// 10 rows over 3 ranks: rowsPer=4 -> ranks own 4,4,2.
		a, err := tk.Create(p.Comm(), 10, 4)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		lo, hi := a.MyRows()
		owned := hi - lo
		total := p.Comm().AllreduceInt64(runtime.OpSum, int64(owned))
		if total != 10 {
			t.Errorf("partition covers %d rows, want 10", total)
		}
		switch p.Rank() {
		case 0, 1:
			if owned != 4 {
				t.Errorf("rank %d owns %d rows, want 4", p.Rank(), owned)
			}
		case 2:
			if owned != 2 {
				t.Errorf("rank 2 owns %d rows, want 2", owned)
			}
		}
		a.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPutGetPatchAcrossOwners: a patch spanning all owners round-trips.
func TestPutGetPatchAcrossOwners(t *testing.T) {
	w := newWorld(t, 4)
	err := w.Run(func(p *runtime.Proc) {
		tk := Attach(p)
		a, err := tk.Create(p.Comm(), 16, 8)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		a.Sync()
		if p.Rank() == 2 {
			// Write a 10x3 patch crossing three owners.
			patch := make([]float64, 10*3)
			for i := range patch {
				patch[i] = float64(i) + 0.5
			}
			if err := a.Put(3, 2, 10, 3, patch); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		a.Sync()
		if p.Rank() == 1 {
			got := make([]float64, 10*3)
			if err := a.Get(3, 2, 10, 3, got); err != nil {
				t.Errorf("get: %v", err)
			}
			for i, v := range got {
				if v != float64(i)+0.5 {
					t.Errorf("patch[%d] = %v, want %v", i, v, float64(i)+0.5)
					break
				}
			}
			// Neighbouring column untouched (zero).
			side := make([]float64, 10)
			if err := a.Get(3, 5, 10, 1, side); err != nil {
				t.Errorf("side get: %v", err)
			}
			for i, v := range side {
				if v != 0 {
					t.Errorf("column 5 row %d contaminated: %v", i, v)
					break
				}
			}
		}
		a.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFillAndGet(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		tk := Attach(p)
		a, err := tk.Create(p.Comm(), 8, 4)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		a.Fill(7.25)
		a.Sync()
		if p.Rank() == 1 {
			got := make([]float64, 8*4)
			if err := a.Get(0, 0, 8, 4, got); err != nil {
				t.Errorf("get: %v", err)
			}
			for i, v := range got {
				if v != 7.25 {
					t.Errorf("element %d = %v", i, v)
					break
				}
			}
		}
		a.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAccConcurrent: concurrent accumulates from every rank onto the same
// patch sum exactly (ARMCI accumulate serialization).
func TestAccConcurrent(t *testing.T) {
	w := newWorld(t, 3)
	const iters = 8
	err := w.Run(func(p *runtime.Proc) {
		tk := Attach(p)
		a, err := tk.Create(p.Comm(), 6, 6)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		a.Sync()
		ones := make([]float64, 6*6)
		for i := range ones {
			ones[i] = 1
		}
		for i := 0; i < iters; i++ {
			if err := a.Acc(0, 0, 6, 6, 2.0, ones); err != nil {
				t.Errorf("acc: %v", err)
			}
		}
		a.Sync()
		if p.Rank() == 0 {
			got := make([]float64, 6*6)
			if err := a.Get(0, 0, 6, 6, got); err != nil {
				t.Errorf("get: %v", err)
			}
			want := float64(3 * iters * 2)
			for i, v := range got {
				if v != want {
					t.Errorf("element %d = %v, want %v", i, v, want)
					break
				}
			}
		}
		a.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPatchValidation(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(p *runtime.Proc) {
		tk := Attach(p)
		a, err := tk.Create(p.Comm(), 4, 4)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		buf := make([]float64, 4)
		if err := a.Put(3, 3, 2, 2, buf); err == nil {
			t.Error("out-of-bounds patch accepted")
		}
		if err := a.Put(0, 0, 2, 2, buf[:3]); err == nil {
			t.Error("short buffer accepted")
		}
		if err := a.Get(-1, 0, 1, 1, buf[:1]); err == nil {
			t.Error("negative row accepted")
		}
		p.Barrier()
		a.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandomPatchesAgainstShadow: random put/get patches from a single
// writer rank match a local shadow matrix.
func TestRandomPatchesAgainstShadow(t *testing.T) {
	w := newWorld(t, 3)
	const rows, cols = 12, 9
	err := w.Run(func(p *runtime.Proc) {
		tk := Attach(p)
		a, err := tk.Create(p.Comm(), rows, cols)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		a.Sync()
		if p.Rank() == 0 {
			shadow := make([]float64, rows*cols)
			rng := rand.New(rand.NewSource(21))
			for iter := 0; iter < 40; iter++ {
				r0 := rng.Intn(rows)
				c0 := rng.Intn(cols)
				nr := 1 + rng.Intn(rows-r0)
				nc := 1 + rng.Intn(cols-c0)
				patch := make([]float64, nr*nc)
				for i := range patch {
					patch[i] = rng.Float64()
				}
				if err := a.Put(r0, c0, nr, nc, patch); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				for i := 0; i < nr; i++ {
					copy(shadow[(r0+i)*cols+c0:(r0+i)*cols+c0+nc], patch[i*nc:(i+1)*nc])
				}
				// Read back a random patch and compare.
				gr := rng.Intn(rows)
				gc := rng.Intn(cols)
				gnr := 1 + rng.Intn(rows-gr)
				gnc := 1 + rng.Intn(cols-gc)
				got := make([]float64, gnr*gnc)
				if err := a.Get(gr, gc, gnr, gnc, got); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				for i := 0; i < gnr; i++ {
					for j := 0; j < gnc; j++ {
						if got[i*gnc+j] != shadow[(gr+i)*cols+gc+j] {
							t.Errorf("iter %d: (%d,%d) = %v, want %v", iter, gr+i, gc+j, got[i*gnc+j], shadow[(gr+i)*cols+gc+j])
							return
						}
					}
				}
			}
		}
		a.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}
