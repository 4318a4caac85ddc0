package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the percentile
// reported as a run's tail.
const tailBeyond = 10

// median returns the median of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least
// tailBeyond samples beyond it: the (tailBeyond+1)-th largest sample,
// with the percentile it sits at, 100·(n−tailBeyond)/n. With too few
// samples for that rule it returns the maximum and ok=false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
