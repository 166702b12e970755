package main

import (
	"math"
	"math/bits"
	"sort"
)

// recorder is the benchmark's own latency recorder: a log-linear histogram
// with 128 sub-buckets per power of two, so a bucket is at most 0.8 % wide,
// and values below 128 are exact. Each bucket also keeps the sum of its
// samples; a percentile reads as the mean of the bucket that holds it, which
// is the exact value whenever the samples in that bucket agree — the usual
// case on the deterministic virtual clock. Recording touches two fixed
// arrays and allocates nothing.
//
// internal/stats.Histogram is not used: its buckets are powers of two, so
// its percentiles are bucket edges.
type recorder struct {
	count []int64
	sum   []int64
	n     int64
	total int64
}

const (
	recSubBits = 7
	recMaxBits = 48 // 2^48 ns is over three days; larger samples clamp
	recBuckets = (recMaxBits - recSubBits + 1) << recSubBits
)

func newRecorder() *recorder {
	return &recorder{count: make([]int64, recBuckets), sum: make([]int64, recBuckets)}
}

func recIndex(v int64) int {
	if v < 1<<recSubBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	if v >= 1<<recMaxBits {
		return recBuckets - 1
	}
	shift := bits.Len64(uint64(v)) - 1 - recSubBits
	return (shift+1)<<recSubBits + int(v>>shift) - 1<<recSubBits
}

func (r *recorder) add(v int64) {
	i := recIndex(v)
	r.count[i]++
	r.sum[i] += v
	r.n++
	r.total += v
}

func (r *recorder) merge(o *recorder) {
	if o == nil {
		return
	}
	for i, c := range o.count {
		if c != 0 {
			r.count[i] += c
			r.sum[i] += o.sum[i]
		}
	}
	r.n += o.n
	r.total += o.total
}

// quantile returns the q-quantile (nearest rank), 0 when empty.
func (r *recorder) quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(r.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range r.count {
		seen += c
		if seen >= rank {
			return float64(r.sum[i]) / float64(c)
		}
	}
	return 0
}

func (r *recorder) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.total) / float64(r.n)
}

// quartiles returns the first quartile, median and third quartile of vs by
// linear interpolation between order statistics; vs is not modified.
func quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}
