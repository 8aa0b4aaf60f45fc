// Package obs holds the node's observability primitives. Histogram is
// a fixed log-linear latency histogram in the HdrHistogram style
// (http://hdrhistogram.org): recording is one atomic add and never
// allocates, and a quantile costs one pass over the buckets, however
// many samples were recorded.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits sets the resolution: every power-of-two range of durations is
// split into 1<<subBits linear buckets, so a bucket is at most 1/32 of
// its lower bound wide. Durations below 1<<subBits ns get exact buckets.
const (
	subBits    = 5
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits + 1) * subBuckets
)

// RelativeError bounds how far a reported quantile may sit from the
// exact sample quantile, as a fraction of the exact value: half a
// bucket's width.
const RelativeError = 1.0 / (2 * subBuckets)

// Histogram counts durations in log-linear buckets. The zero value is
// ready to use and safe for concurrent recording and reading.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
}

// bucketOf maps a value to its bucket: values below subBuckets map to
// themselves; larger ones keep their top subBits+1 significant bits.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return shift*subBuckets + int(v>>shift)
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	shift := i/subBuckets - 1
	lower := uint64(i-shift*subBuckets) << shift
	return lower + (uint64(1)<<shift)/2
}

// Record counts one duration; negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))].Add(1)
}

// Quantiles returns the q-quantile of the recorded durations for each
// q in qs (0 ≤ q < 1): the midpoint of the bucket holding the sample of
// rank ⌊n·q⌋ in sorted order. With no samples every quantile is zero.
// Samples recorded concurrently may or may not be counted.
func (h *Histogram) Quantiles(qs ...float64) []time.Duration {
	var counts [numBuckets]uint64
	var n uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		n += counts[i]
	}
	out := make([]time.Duration, len(qs))
	if n == 0 {
		return out
	}
	for j, q := range qs {
		rank := uint64(float64(n) * q)
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen > rank {
				out[j] = time.Duration(bucketMid(i))
				break
			}
		}
	}
	return out
}
