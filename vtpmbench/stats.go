package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// samples is a list of durations with exact order statistics. It is kept
// for bounded sample sets (probes, the traced window); measured windows
// record into hist, whose size does not grow with throughput.
type samples []time.Duration

// pct returns the p-quantile (0 < p ≤ 1) by nearest rank on a sorted copy.
func (s samples) pct(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[rank(p, uint64(len(c)))-1]
}

// rank is the 1-based nearest rank of the p-quantile among n values.
func rank(p float64, n uint64) uint64 {
	k := uint64(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// us converts a duration to microseconds as a float.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ms converts a duration to milliseconds as a float.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// medianF returns the median of a float slice (mean of the middle pair).
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hist is a log-linear histogram of nanosecond durations: exact below
// 2^subBits ns, then 2^subBits buckets per power of two, so a bucket is at
// most 1/128 of its value wide. Its size is fixed, so a run's memory does
// not grow with the number of commands it measures.
type hist struct {
	n      uint64
	counts [(64 - subBits) << subBits]uint64
}

const subBits = 7

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketSpan is the lowest value in bucket i and the bucket's width.
func bucketSpan(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i>>subBits - 1
	m := uint64(i&(1<<subBits-1)) + 1<<subBits
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// pct returns the p-quantile by nearest rank, placed within its bucket by
// the rank's position among the bucket's values.
func (h *hist) pct(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	k := rank(p, h.n)
	var below uint64
	for i, c := range h.counts {
		if below+c >= k {
			lo, w := bucketSpan(i)
			return time.Duration(lo + w*(float64(k-below)-0.5)/float64(c))
		}
		below += c
	}
	return 0
}
