package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// tailQuantile is quantile for a reported tail percentile: it refuses a
// percentile with fewer than ten samples beyond it, which would be noise.
func tailQuantile(xs []float64, q float64) (float64, error) {
	if beyond := len(xs) - 1 - rank(len(xs), q); beyond < 10 {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it (need 10)", q*100, len(xs), beyond)
	}
	return quantile(xs, q), nil
}

// chunkedP99 is the p99 of latencies in time order, steadied against a
// slow spell of the machine: the median of the p99s of up to maxChunks
// consecutive chunks of at least 1000 samples each (ten beyond every
// chunk's p99). It also returns the number of chunks.
func chunkedP99(xs []float64, maxChunks int) (float64, int, error) {
	m := min(maxChunks, len(xs)/1000)
	if m < 1 {
		return 0, 0, fmt.Errorf("a p99 needs 1000 samples, have %d", len(xs))
	}
	ps := make([]float64, m)
	for i := range ps {
		ps[i] = quantile(xs[i*len(xs)/m:(i+1)*len(xs)/m], 0.99)
	}
	return median(ps), m, nil
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}
