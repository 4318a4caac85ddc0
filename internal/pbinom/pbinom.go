// Package pbinom computes the Poisson-binomial distribution: the law of
// the sum of independent, non-identical Bernoulli variables.
//
// In the paper, the degree of a vertex v in the uncertain graph G̃ is
// exactly such a sum over the candidate pairs incident to v (Eq. 4).
// Section 4 gives two evaluation routes, both implemented here:
//
//   - Lemma 1: an exact O(L^2) dynamic program over the L incident
//     probabilities;
//   - a CLT/normal approximation Pr(d = w) ~ integral of the Gaussian
//     N(sum p_i, sum p_i(1-p_i)) over [w-1/2, w+1/2], accurate once L is
//     a few tens ("n ~ 30" per the paper).
package pbinom

import (
	"math"
	"slices"

	"uncertaingraph/internal/mathx"
)

// DefaultExactThreshold is the number of Bernoulli terms above which New
// switches from the exact DP to the normal approximation. Thirty is the
// paper's own rule of thumb for CLT accuracy.
const DefaultExactThreshold = 30

// Dist is the distribution of a sum of independent Bernoulli variables,
// represented either exactly or by its normal approximation.
type Dist struct {
	exact []float64 // exact[k] = P(X=k); nil when approximated
	mu    float64
	sigma float64
	n     int // number of Bernoulli terms (support is 0..n)
}

// Exact computes the full distribution by the Lemma 1 dynamic program in
// O(len(probs)^2) time.
func Exact(probs []float64) Dist {
	mu, sigma2 := meanVar(probs)
	return Dist{exact: ExactInto(nil, probs), mu: mu, sigma: sqrt(sigma2), n: len(probs)}
}

// ExactInto runs the Lemma 1 dynamic program into buf, grown when its
// capacity is short, and returns the table: table[k] = P(X = k) for
// k = 0..len(probs). It is the allocation-free core of Exact for scans
// that stream many vertices through one buffer.
func ExactInto(buf, probs []float64) []float64 {
	dist := slices.Grow(buf[:0], len(probs)+1)[:len(probs)+1]
	clear(dist)
	dist[0] = 1
	// After processing l terms, dist[0..l] is the law of the partial sum.
	for l, p := range probs {
		// Walk downward so dist[j-1] is still the previous iteration's
		// value when updating dist[j].
		for j := l + 1; j >= 1; j-- {
			dist[j] = dist[j-1]*p + dist[j]*(1-p)
		}
		dist[0] *= 1 - p
	}
	return dist
}

// Approx builds the normal approximation of the distribution without
// computing it exactly; evaluation of Prob is O(1) per point.
func Approx(probs []float64) Dist {
	mu, sigma2 := meanVar(probs)
	return Dist{mu: mu, sigma: sqrt(sigma2), n: len(probs)}
}

// New picks the representation adaptively: exact DP up to threshold
// terms (0 means DefaultExactThreshold), normal approximation beyond.
func New(probs []float64, threshold int) Dist {
	if len(probs) <= ResolveThreshold(threshold) {
		return Exact(probs)
	}
	return Approx(probs)
}

// ResolveThreshold returns the exact-DP threshold New applies: the
// given value, or DefaultExactThreshold for threshold <= 0.
func ResolveThreshold(threshold int) int {
	if threshold <= 0 {
		return DefaultExactThreshold
	}
	return threshold
}

// Prob returns P(X = k).
func (d Dist) Prob(k int) float64 {
	if k < 0 || k > d.n {
		return 0
	}
	if d.exact != nil {
		return d.exact[k]
	}
	if d.sigma == 0 {
		// Degenerate: all probabilities 0 or 1, X is constant at mu.
		if float64(k) == d.mu {
			return 1
		}
		return 0
	}
	return mathx.NormalIntervalMass(float64(k)-0.5, float64(k)+0.5, d.mu, d.sigma)
}

// Mean returns E[X] = sum p_i.
func (d Dist) Mean() float64 { return d.mu }

// Sigma returns the standard deviation sqrt(sum p_i (1-p_i)).
func (d Dist) Sigma() float64 { return d.sigma }

// NumTerms returns the number of Bernoulli terms; the support of X is
// {0, ..., NumTerms()}.
func (d Dist) NumTerms() int { return d.n }

// IsExact reports whether the distribution holds the exact DP table.
func (d Dist) IsExact() bool { return d.exact != nil }

// SupportBounds returns a conservative [lo, hi] integer range outside of
// which P(X = k) is below ~1e-12; useful to skip negligible matrix
// entries. For exact distributions it is the full support.
func (d Dist) SupportBounds() (lo, hi int) {
	if d.exact != nil {
		return 0, d.n
	}
	// 8 standard deviations cover mass 1 - ~1e-15.
	span := 8*d.sigma + 1
	lo = int(d.mu - span)
	hi = int(d.mu + span + 1)
	if lo < 0 {
		lo = 0
	}
	if hi > d.n {
		hi = d.n
	}
	return lo, hi
}

func meanVar(probs []float64) (mu, sigma2 float64) {
	for _, p := range probs {
		mu += p
		sigma2 += p * (1 - p)
	}
	return mu, sigma2
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
