// Package adversary implements the paper's re-identification model and
// the (k, ε)-obfuscation criterion (Definitions 2 and 3 of Section 3,
// quantified for the degree property in Section 4).
//
// The adversary knows a property value ω = P(v) of a target vertex and
// examines a published object in which each vertex v has a probability
// distribution X_v over property values. Normalizing the column of
// X at ω over all vertices yields Y_ω (Eq. 3), the adversary's belief
// distribution about which published vertex is the target. A vertex is
// k-obfuscated when H(Y_{P(v)}) >= log2 k, and the published object is a
// (k, ε)-obfuscation when at most an ε-fraction of vertices fail that
// bound.
//
// The same machinery serves two publishers: uncertain graphs (X_v is the
// Poisson-binomial degree distribution of Section 4) and the
// random-perturbation baselines of Section 7.3, whose X columns are
// degree-transition probabilities under the random model (the entropy
// measure of Bonchi et al.). Both are adapted to the Model interface.
package adversary

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"

	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/parallel"
	"uncertaingraph/internal/pbinom"
	"uncertaingraph/internal/uncertain"
)

// Dist is a probability mass function over non-negative integers.
// pbinom.Dist satisfies it.
type Dist interface {
	Prob(k int) float64
}

// Model exposes, per published vertex v, the distribution X_v(ω) over
// property values ω (paper Eq. 2 for uncertain graphs).
type Model interface {
	NumVertices() int
	// VertexX returns X_v as a distribution. Implementations are called
	// once per vertex per pass and may allocate.
	VertexX(v int) Dist
}

// UncertainModel adapts an uncertain graph to the adversary interface
// for the degree property: X_v is the Poisson-binomial law of v's degree
// over its incident candidate pairs.
type UncertainModel struct {
	G *uncertain.Graph
	// ExactThreshold bounds the exact DP size; beyond it the CLT
	// approximation is used (<= 0 selects pbinom.DefaultExactThreshold).
	ExactThreshold int
	// Workers bounds the parallelism of the entropy scan (<= 0 selects
	// GOMAXPROCS). The scan's result is bit-identical for every value.
	Workers int
	// Ctx, when non-nil and cancelled, abandons the scan at the next
	// chunk boundary; the result is then unspecified and the caller must
	// discard it. The obfuscation engine hands each speculative σ probe
	// a derived context and cancels it to reap the probe instead of
	// letting its scan run to completion; request-scoped callers pass
	// their request context so a dropped client stops the scan.
	Ctx context.Context
}

// ParallelWorkers implements WorkerHinted.
func (m UncertainModel) ParallelWorkers() int { return m.Workers }

// Aborted implements Abortable on top of the model's context.
func (m UncertainModel) Aborted() bool {
	return m.Ctx != nil && m.Ctx.Err() != nil
}

// WorkerHinted is an optional Model extension: models that carry an
// explicit worker budget (e.g. one trial of the parallel obfuscation
// engine, which shares cores with its sibling trials) expose it here;
// ColumnEntropies otherwise defaults to GOMAXPROCS.
type WorkerHinted interface {
	ParallelWorkers() int
}

// Abortable is an optional Model extension: ColumnEntropies polls it
// between chunks and stops scanning once it reports true, returning an
// unspecified result the caller has agreed to discard.
type Abortable interface {
	Aborted() bool
}

// NumVertices implements Model.
func (m UncertainModel) NumVertices() int { return m.G.NumVertices() }

// VertexX implements Model.
func (m UncertainModel) VertexX(v int) Dist {
	return m.G.DegreeDist(v, m.ExactThreshold)
}

// Preparer is an optional Model extension: models whose X columns are
// cheaper to precompute in bulk (the baseline degree-transition models)
// implement it, and ColumnEntropies invokes it before the parallel scan.
type Preparer interface {
	Prepare(omegas []int)
}

// scanChunk is the fixed vertex-range granularity of the parallel scan.
// Chunk boundaries — and hence the order in which partial accumulators
// merge — must not depend on the worker count: float addition is not
// associative, so a worker-count-dependent split would make entropies
// (and every (k, ε) decision built on them) drift between runs with
// different parallelism. Fixed chunks merged in index order give
// bit-identical results for any number of workers.
const scanChunk = 512

// ColumnEntropies computes H(Y_ω) for every requested property value ω,
// streaming the X columns of all vertices through entropy accumulators.
// The vertex scan is parallelized across CPUs.
func ColumnEntropies(m Model, omegas []int) map[int]float64 {
	ents := columnEntropies(m, omegas)
	out := make(map[int]float64, len(omegas))
	for i, omega := range omegas {
		out[omega] = ents[i]
	}
	return out
}

// columnEntropies is ColumnEntropies with the entropies returned in
// omegas order. An UncertainModel is scanned by the concrete
// Poisson-binomial kernel (uncertainChunk); every other Model through
// its VertexX distributions. Both accumulate the same columns in the
// same vertex, chunk and merge order, so they agree bit for bit.
func columnEntropies(m Model, omegas []int) []float64 {
	if prep, ok := m.(Preparer); ok {
		prep.Prepare(omegas)
	}
	n := m.NumVertices()
	out := make([]float64, len(omegas))
	if len(omegas) == 0 || n == 0 {
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if h, ok := m.(WorkerHinted); ok && h.ParallelWorkers() > 0 {
		workers = h.ParallelWorkers()
	}
	numChunks := (n + scanChunk - 1) / scanChunk
	aborted := func() bool { return false }
	if ab, ok := m.(Abortable); ok {
		aborted = ab.Aborted
	}
	chunk := func(acc []mathx.EntropyAccumulator, lo, hi int) {
		for v := lo; v < hi; v++ {
			x := m.VertexX(v)
			for i, omega := range omegas {
				acc[i].Add(x.Prob(omega))
			}
		}
	}
	if um, ok := m.(UncertainModel); ok {
		chunk = func(acc []mathx.EntropyAccumulator, lo, hi int) {
			uncertainChunk(um, omegas, acc, lo, hi)
		}
	}
	chunkAccs := make([][]mathx.EntropyAccumulator, numChunks)
	parallel.For(numChunks, workers, aborted, func(c int) {
		lo := c * scanChunk
		acc := make([]mathx.EntropyAccumulator, len(omegas))
		chunk(acc, lo, min(lo+scanChunk, n))
		chunkAccs[c] = acc
	})
	// Merge in chunk order — the same summation tree every run. Chunks
	// may be nil only after an abort, whose result is discarded anyway.
	merged := make([]mathx.EntropyAccumulator, len(omegas))
	for _, acc := range chunkAccs {
		if acc == nil {
			continue
		}
		for i := range merged {
			merged[i].Merge(acc[i])
		}
	}
	for i := range merged {
		out[i] = merged[i].Entropy()
	}
	return out
}

// uncertainChunk accumulates the X columns of vertices [lo, hi) of an
// uncertain graph: the degree law of v is the Poisson-binomial over its
// L incident probabilities (Section 4), evaluated through per-chunk
// buffers with no allocation per vertex. It adds exactly the values
// Dist.Prob would:
//
//   - only columns 0 ≤ ω ≤ L are evaluated — Prob is 0 elsewhere, and
//     adding 0 leaves an accumulator unchanged;
//   - L ≤ threshold runs the Lemma 1 DP into one per-chunk buffer;
//   - otherwise the CLT mass of [ω-½, ω+½] is a difference of two erfc
//     terms, and when ω follows the previous evaluated column the lower
//     term is that column's upper term (mathx.NormalErfc), halving the
//     erfc calls for sorted omegas.
//
// omegas may come in any order, with repeats and out-of-range values;
// only when the chunk has checked that they ascend does a column
// beyond L end the vertex's loop.
func uncertainChunk(m UncertainModel, omegas []int, acc []mathx.EntropyAccumulator, lo, hi int) {
	threshold := pbinom.ResolveThreshold(m.ExactThreshold)
	ascending := slices.IsSorted(omegas)
	var probs, table []float64
	for v := lo; v < hi; v++ {
		probs = m.G.AppendIncidentProbs(probs[:0], v)
		L := len(probs)
		if L <= threshold {
			table = pbinom.ExactInto(table, probs)
			for i, omega := range omegas {
				if omega > L {
					if ascending {
						break
					}
					continue
				}
				if omega >= 0 {
					acc[i].Add(table[omega])
				}
			}
			continue
		}
		d := pbinom.Approx(probs)
		mu, sigma := d.Mean(), d.Sigma()
		if sigma == 0 {
			// Every probability is 0 or 1: the degree is certain.
			for i, omega := range omegas {
				acc[i].Add(d.Prob(omega))
			}
			continue
		}
		prev, upper := -1, 0.0 // last evaluated column and its upper erfc term
		for i, omega := range omegas {
			if omega > L {
				if ascending {
					break
				}
				continue
			}
			if omega < 0 {
				continue
			}
			var lower float64
			if omega == prev+1 && prev >= 0 {
				lower = upper
			} else {
				lower = mathx.NormalErfc(float64(omega)-0.5, mu, sigma)
			}
			upper = mathx.NormalErfc(float64(omega)+0.5, mu, sigma)
			prev = omega
			acc[i].Add(0.5 * (lower - upper))
		}
	}
}

// DistinctValues returns the sorted distinct values in the property
// assignment (e.g. the distinct original degrees) — exactly the columns
// the (k, ε) check needs.
func DistinctValues(values []int) []int {
	if len(values) == 0 {
		return nil
	}
	out := slices.Clone(values)
	slices.Sort(out)
	return slices.Compact(out)
}

// VertexEntropies returns, for each original vertex v (with property
// values[v]), the entropy H(Y_{values[v]}) under the model.
func VertexEntropies(m Model, values []int) []float64 {
	omegas := DistinctValues(values)
	ents := columnEntropies(m, omegas)
	out := make([]float64, len(values))
	for v, val := range values {
		i, _ := slices.BinarySearch(omegas, val)
		out[v] = ents[i]
	}
	return out
}

// ObfuscationLevels returns the per-vertex obfuscation level
// 2^H(Y_{P(v)}): the effective crowd size the vertex hides in. A certain
// graph gives exactly the count of vertices sharing the degree.
func ObfuscationLevels(m Model, values []int) []float64 {
	ents := VertexEntropies(m, values)
	out := make([]float64, len(ents))
	for i, h := range ents {
		out[i] = math.Exp2(h)
	}
	return out
}

// NotObfuscatedFraction returns ε̃: the fraction of original vertices
// that are not k-obfuscated (H(Y_{P(v)}) < log2 k) under the model.
func NotObfuscatedFraction(m Model, values []int, k float64) float64 {
	if len(values) == 0 {
		return 0
	}
	ents := VertexEntropies(m, values)
	logk := math.Log2(k)
	bad := 0
	for _, h := range ents {
		if h < logk-1e-12 {
			bad++
		}
	}
	return float64(bad) / float64(len(values))
}

// IsKEpsObfuscation reports whether the model provides a
// (k, ε)-obfuscation with respect to the property assignment, i.e. at
// least (1-ε)n vertices are k-obfuscated (Definition 2).
func IsKEpsObfuscation(m Model, values []int, k, eps float64) bool {
	return NotObfuscatedFraction(m, values, k) <= eps+1e-12
}

// MatchedK implements the parameter-matching rule of Section 7.3: for a
// fixed tolerance ε, the obfuscation level k matched by a published
// graph is the least obfuscation level among its vertices after
// disregarding the ⌊ε·n⌋ vertices with the smallest levels.
func MatchedK(levels []float64, eps float64) float64 {
	if len(levels) == 0 {
		return 0
	}
	sorted := append([]float64(nil), levels...)
	sort.Float64s(sorted)
	drop := int(eps * float64(len(sorted)))
	if drop >= len(sorted) {
		drop = len(sorted) - 1
	}
	return sorted[drop]
}

// AnonymityCDF returns, for each level 1..maxK, the number of vertices
// whose obfuscation level is <= that level — the curves of Figure 4.
func AnonymityCDF(levels []float64, maxK int) []int {
	cdf := make([]int, maxK+1)
	for _, level := range levels {
		// A vertex of level l first satisfies "level <= k" at the
		// smallest integer k >= l.
		idx := int(math.Ceil(level - 1e-12))
		if idx < 0 {
			idx = 0
		}
		if idx > maxK {
			continue
		}
		cdf[idx]++
	}
	for k := 1; k <= maxK; k++ {
		cdf[k] += cdf[k-1]
	}
	return cdf
}

// static check that pbinom.Dist satisfies Dist.
var _ Dist = pbinom.Dist{}
