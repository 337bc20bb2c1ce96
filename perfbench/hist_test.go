package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistQuantilesMatchSortedReference checks every reported quantile
// against the exact order statistic of the same samples, within the
// histogram's stated 1/128 relative error.
func TestHistQuantilesMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() time.Duration{
		"small exact": func() time.Duration { return time.Duration(rng.Intn(64)) },
		"uniform":     func() time.Duration { return time.Duration(rng.Int63n(int64(5 * time.Millisecond))) },
		"lognormal":   func() time.Duration { return time.Duration(math.Exp(rng.NormFloat64()*1.5 + 12)) },
		"bimodal": func() time.Duration {
			if rng.Intn(50) == 0 {
				return 30*time.Millisecond + time.Duration(rng.Intn(1e6))
			}
			return 200*time.Microsecond + time.Duration(rng.Intn(1e5))
		},
	}
	for name, draw := range dists {
		for _, n := range []int{1, 7, 1000, 20000} {
			var h Hist
			ref := make([]int64, n)
			var sum float64
			for i := range ref {
				d := draw()
				h.Record(d)
				ref[i] = int64(d)
				sum += float64(d)
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				rank := int(math.Ceil(q * float64(n)))
				exact := ref[max(rank, 1)-1]
				got := int64(h.Quantile(q))
				if diff := math.Abs(float64(got - exact)); diff > float64(exact)/128+1 {
					t.Errorf("%s n=%d q=%v: got %d, exact %d", name, n, q, got, exact)
				}
			}
			if h.Count() != uint64(n) || math.Abs(float64(h.Mean())-sum/float64(n)) > 1 {
				t.Errorf("%s n=%d: count %d mean %v, want %d and %v", name, n, h.Count(), h.Mean(), n, sum/float64(n))
			}
		}
	}
}

func TestHistMergeEqualsCombinedRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, all Hist
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(int64(time.Second)))
		all.Record(d)
		if i%3 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(&b)
	for _, q := range []float64{0.5, 0.99, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("q=%v: merged %v, combined %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

func TestHistEmptyAndNegative(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report 0")
	}
	h.Record(-time.Second)
	if h.Quantile(1) != 0 {
		t.Fatalf("negative duration recorded as %v, want 0", h.Quantile(1))
	}
}

func TestBucketRangeInvertsBucketOf(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 129, 1000, 1 << 20, 1<<40 + 12345} {
		lo, hi := bucketRange(bucketOf(v))
		if v < lo || v > hi {
			t.Errorf("value %d outside its bucket [%d, %d]", v, lo, hi)
		}
		if float64(hi-lo) > float64(lo)/64 {
			t.Errorf("bucket [%d, %d] wider than 1/64 of its floor", lo, hi)
		}
	}
}
