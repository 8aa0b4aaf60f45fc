package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// The reported p50/p95/p99 of a known distribution fall within one
// bucket's relative error of the exact sample quantiles.
func TestQuantilesWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dist := range []struct {
		name string
		draw func() time.Duration
	}{
		{"lognormal", func() time.Duration { return time.Duration(math.Exp(10 + 1.5*rng.NormFloat64())) }},
		{"uniform", func() time.Duration { return time.Duration(rng.Int63n(int64(50 * time.Millisecond))) }},
		{"small", func() time.Duration { return time.Duration(rng.Intn(100)) }},
	} {
		var h Histogram
		samples := make([]time.Duration, 20000)
		for i := range samples {
			samples[i] = dist.draw()
			h.Record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		qs := []float64{0.5, 0.95, 0.99}
		got := h.Quantiles(qs...)
		for i, q := range qs {
			exact := samples[int(float64(len(samples))*q)]
			if diff := math.Abs(float64(got[i] - exact)); diff > float64(exact)*RelativeError {
				t.Errorf("%s p%g = %v, exact %v: off by %.4f, bound %.4f", dist.name, q*100, got[i], exact,
					diff/float64(exact), RelativeError)
			}
		}
	}
}

func TestEmptyAndExtremes(t *testing.T) {
	var h Histogram
	if got := h.Quantiles(0.5, 0.99); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty histogram quantiles = %v", got)
	}
	h.Record(-5)
	h.Record(time.Duration(math.MaxInt64))
	got := h.Quantiles(0, 0.5)
	if got[0] != 0 {
		t.Errorf("negative duration counted as %v, want 0", got[0])
	}
	if rel := math.Abs(float64(got[1])-math.MaxInt64) / math.MaxInt64; rel > RelativeError {
		t.Errorf("max duration reported as %v", got[1])
	}
}

func TestBucketsContiguous(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<16; v++ {
		b := bucketOf(v)
		if b != prev && b != prev+1 {
			t.Fatalf("bucket jumps from %d to %d at %d", prev, b, v)
		}
		prev = b
	}
	if b := bucketOf(math.MaxUint64); b != numBuckets-1 {
		t.Errorf("largest value maps to bucket %d of %d", b, numBuckets)
	}
}

func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Microsecond)
				_ = h.Quantiles(0.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Quantiles(0.99)[0]; got != time.Microsecond {
		t.Errorf("p99 = %v, want 1µs", got)
	}
}
