package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-bucket concurrent histogram for hot paths. It never
// allocates or sorts: observations land in power-of-two
// buckets (bucket i holds values in [2^(i-1), 2^i), bucket 0 holds zero),
// so Observe is a pair of atomic adds and quantile queries walk 64 fixed
// counters. The price is resolution — quantiles are exact only to the
// bucket boundary — which is the right trade for per-operation latency in
// virtual-time nanoseconds.
//
// The zero value is ready to use. A nil *Histogram discards observations,
// so call sites need no nil checks.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// histBuckets covers every non-negative int64: bits.Len64 of a positive
// int64 is at most 63, and bucket 0 holds zero.
const histBuckets = 64

// Observe records one non-negative observation (negatives clamp to zero).
// On a nil histogram it is a no-op.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest observation, or 0 with none.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) by
// nearest-rank over the buckets: the inclusive upper edge of the bucket
// holding the rank, clamped to the observed maximum. 0 with no
// observations.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// Reset discards all observations. Not atomic against concurrent Observe;
// use between measurement phases.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot captures the histogram's state for export or merging.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: bucketUpper(i), Count: n})
		}
	}
	return s
}

// HistogramBucket is one non-empty bucket: Count observations with values
// at most Le (the bucket's inclusive upper edge).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram, mergeable
// across ranks (buckets share the fixed power-of-two edges).
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Max     int64             `json:"max"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// bucketUpper returns the inclusive upper edge of bucket i.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Mean returns the snapshot's arithmetic mean, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile by nearest-rank over
// the buckets, clamped to the observed maximum.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			if b.Le > s.Max {
				return s.Max
			}
			return b.Le
		}
	}
	return s.Max
}

// Merge folds another snapshot into this one (buckets matched by edge).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	byLe := make(map[int64]int64, len(s.Buckets)+len(o.Buckets))
	for _, b := range s.Buckets {
		byLe[b.Le] += b.Count
	}
	for _, b := range o.Buckets {
		byLe[b.Le] += b.Count
	}
	s.Buckets = s.Buckets[:0]
	for i := 0; i < histBuckets; i++ {
		le := bucketUpper(i)
		if n := byLe[le]; n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: le, Count: n})
		}
	}
}
