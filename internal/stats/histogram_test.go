package stats

import (
	"sync"
	"testing"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should discard everything")
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatalf("nil snapshot %+v", s)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1106 { // -5 clamps to 0
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	if got := h.Mean(); got < 157 || got > 159 {
		t.Fatalf("mean = %f", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	// Nearest-rank p50 of 1..100 is 50; the bucket edge above 50 is 63.
	if q := h.Quantile(0.5); q != 63 {
		t.Fatalf("p50 = %d, want 63 (bucket upper edge)", q)
	}
	// p99 rank is 99, in bucket (64,127] whose edge exceeds the max: clamp.
	if q := h.Quantile(0.99); q != 100 {
		t.Fatalf("p99 = %d, want 100 (clamped to max)", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 = %d, want 1", q)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Observe(10)
		b.Observe(1000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 20 || s.Sum != 10100 || s.Max != 1000 {
		t.Fatalf("merged %+v", s)
	}
	if q := s.Quantile(0.25); q != 15 {
		t.Fatalf("merged p25 = %d, want 15 (edge of the 10s bucket)", q)
	}
	if q := s.Quantile(0.9); q != 1000 {
		t.Fatalf("merged p90 = %d, want 1000 (clamped to max)", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 999 {
		t.Fatalf("max = %d", h.Max())
	}
}
