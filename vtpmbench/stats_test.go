package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestHistMatchesExact checks the histogram's quantiles against exact
// order statistics on a long-tailed sample: each must fall within one
// bucket width (1/128 of the value) of the exact nearest-rank quantile.
func TestHistMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var s samples
	for i := 0; i < 100000; i++ {
		d := time.Duration(math.Exp(rng.NormFloat64()*1.5) * 20e3)
		h.add(d)
		s = append(s, d)
	}
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := float64(h.pct(p)), float64(s.pct(p))
		if math.Abs(got-want) > want/128+1 {
			t.Errorf("p%v: hist %v, exact %v", p, time.Duration(got), time.Duration(want))
		}
	}
}

// TestHistBuckets checks that every bucket's span holds exactly the values
// that map to it, across the exact and the log-linear ranges.
func TestHistBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 257, 1000, 1 << 20, 1<<20 + 12345, 1<<62 + 1} {
		i := bucketOf(v)
		lo, w := bucketSpan(i)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d in bucket %d spanning [%v, %v)", v, i, lo, lo+w)
		}
	}
	var h hist
	h.add(time.Duration(math.MaxInt64))
	if h.n != 1 {
		t.Fatal("largest duration not recorded")
	}
}
