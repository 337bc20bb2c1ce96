package main

import (
	"math"
	"math/bits"
	"time"
)

// Hist is a log-linear latency histogram over non-negative durations.
// Values below 2^subBits ns are counted exactly; above that, every
// power-of-two range is split into 2^subBits equal buckets, so a
// reported quantile is within 1/2^(subBits+1) (0.8%) of a recorded
// value. Min, max, count and sum are exact.
type Hist struct {
	counts   []uint64
	n        uint64
	sum      float64
	min, max int64
}

const (
	subBits  = 6
	subCount = 1 << subBits
)

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)*subCount + int(v>>shift) - subCount
}

// bucketRange returns the smallest and largest value of bucket b.
func bucketRange(b int) (lo, hi int64) {
	if b < subCount {
		return int64(b), int64(b)
	}
	shift := b/subCount - 1
	m := int64(b%subCount + subCount)
	return m << shift, (m+1)<<shift - 1
}

// Record adds one duration; negative durations count as zero.
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.counts) {
		grown := make([]uint64, b+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += float64(v)
}

// Merge adds every sample of o.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count is the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// Mean is the exact mean, 0 when empty.
func (h *Hist) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.n))
}

// Quantile returns the q-quantile (0 < q <= 1): the value of rank
// ceil(q*n) in sorted order, estimated by its bucket's midpoint and
// clamped to the exact min and max. It is 0 when empty.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := bucketRange(b)
			mid := lo + (hi-lo)/2
			return time.Duration(min(max(mid, h.min), h.max))
		}
	}
	return time.Duration(h.max)
}

// ms and us convert durations to the float units the metrics use.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
