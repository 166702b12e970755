package bench

import (
	"testing"

	"mpi3rma/internal/core"
	"mpi3rma/internal/serializer"
)

// TestPutsCompleteCell runs one Figure 2 cell per series at a small size
// and checks the data landed and the protocol counters look sane.
func TestPutsCompleteCell(t *testing.T) {
	for _, s := range Fig2SeriesSet {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			out := RunPutsComplete(PutsCompleteConfig{
				Origins: 3,
				Puts:    10,
				Size:    64,
				Attrs:   s.Attrs,
				Mech:    s.Mech,
			})
			if !out.Verified {
				t.Error("target memory inconsistent after puts")
			}
			if out.Row.ModelUS <= 0 {
				t.Errorf("model time %v, want > 0", out.Row.ModelUS)
			}
			if s.Mech == serializer.MechCoarseLock && s.Attrs&core.AttrAtomic != 0 {
				if out.LockGrants != 30 {
					t.Errorf("lock grants = %d, want 30 (one per atomic put)", out.LockGrants)
				}
			} else if out.LockGrants != 0 {
				t.Errorf("lock grants = %d, want 0", out.LockGrants)
			}
		})
	}
}

// TestFig2Shape runs a reduced Figure 2 grid and asserts the paper's
// qualitative ordering of the series on model time.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	res := RunFig2()
	if len(res.Rows) != len(Fig2SeriesSet)*len(Fig2Sizes) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(Fig2SeriesSet)*len(Fig2Sizes))
	}
	for _, note := range res.Failures() {
		t.Error(note)
	}
}
