// Package uncertain implements the paper's publication object: the
// uncertain graph G̃ = (V, p) (Definition 1), where a subset E_C of
// vertex pairs carries edge-existence probabilities and every other pair
// is a certain non-edge.
//
// The package provides possible-world sampling (each pair materializes
// independently with its probability, Eq. 1) both as one-shot
// SampleWorld calls and through the buffer-reusing Sampler engine,
// closed-form expected degree statistics (Section 6.2), and per-vertex
// degree distributions (Poisson-binomial over incident pairs, Section
// 4) that feed the adversary model.
//
// The candidate set is stored columnar — pairU/pairV []int32 plus
// pairP []float64, struct-of-arrays rather than a []Pair — and the
// incident-pair index in compressed-sparse-row form (incOff/incIdx),
// mirroring the flat layout of internal/graph: the candidate pairs
// incident to v are the indices incIdx[incOff[v]:incOff[v+1]], in
// candidate-list order. The columnar arrays are exactly the sections of
// the on-disk binary format (internal/ugbin), so a graph can operate
// directly over an mmap'd file with zero copies.
package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/pbinom"
)

// Pair is a vertex pair carrying an edge-existence probability.
type Pair struct {
	U, V int
	P    float64
}

// Graph is an uncertain graph: a fixed vertex set plus a candidate set
// of probabilistic pairs. Pairs not listed are certain non-edges.
//
// The backing arrays are columnar (see Columns); they may live on the
// heap or alias a read-only memory-mapped file (see MappedBytes), so
// they must never be written after construction.
type Graph struct {
	n      int
	pairU  []int32   // lower endpoint of pair i (pairU[i] < pairV[i])
	pairV  []int32   // upper endpoint of pair i
	pairP  []float64 // existence probability of pair i
	incOff []int64   // CSR offsets into incIdx, length n+1
	incIdx []int32   // pair indices, grouped by incident vertex

	// mapped is the byte count of the externally backed region the
	// arrays alias — an mmap'd file or a caller-retained buffer adopted
	// zero-copy — and 0 for graphs owning their heap arrays; see
	// FootprintBytes.
	mapped int64
}

// MaxVertices bounds the vertex count of a Graph: endpoints are stored
// as int32, on heap and on disk alike.
const MaxVertices = math.MaxInt32

// New constructs an uncertain graph on n vertices from the candidate
// pairs. It rejects self-loops, out-of-range vertices, duplicate pairs,
// and probabilities outside [0, 1].
func New(n int, pairs []Pair) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("uncertain: negative vertex count %d", n)
	}
	if n > MaxVertices {
		return nil, fmt.Errorf("uncertain: vertex count %d exceeds %d", n, MaxVertices)
	}
	m := len(pairs)
	c := Columns{PairU: make([]int32, m), PairV: make([]int32, m), PairP: make([]float64, m)}
	for i, pr := range pairs {
		if pr.U == pr.V {
			return nil, fmt.Errorf("uncertain: self-loop at vertex %d", pr.U)
		}
		if pr.U < 0 || pr.V < 0 || pr.U >= n || pr.V >= n {
			return nil, fmt.Errorf("uncertain: pair (%d,%d) out of range [0,%d)", pr.U, pr.V, n)
		}
		if !(pr.P >= 0 && pr.P <= 1) {
			return nil, fmt.Errorf("uncertain: probability %v of pair (%d,%d) outside [0,1]", pr.P, pr.U, pr.V)
		}
		if pr.U > pr.V {
			pr.U, pr.V = pr.V, pr.U
		}
		c.PairU[i], c.PairV[i], c.PairP[i] = int32(pr.U), int32(pr.V), pr.P
	}
	g := Assemble(n, c)
	if i := g.duplicatePair(); i >= 0 {
		return nil, fmt.Errorf("uncertain: duplicate pair (%d,%d)", g.pairU[i], g.pairV[i])
	}
	return g, nil
}

// Assemble adopts candidate columns c.PairU/PairV/PairP that are
// already valid — endpoints in [0, n) with PairU[i] < PairV[i],
// probabilities in [0, 1], no pair listed twice — and builds their CSR
// incident index into c.IncOff and c.IncIdx, whose contents are ignored
// and whose capacity is reused. It checks none of those invariants: New
// is the validating entry point, and callers that guarantee them by
// construction (the obfuscation engine's candidate table cannot produce
// a duplicate) call Assemble to skip the checks and reuse buffers.
func Assemble(n int, c Columns) *Graph {
	m := len(c.PairP)
	incOff := slices.Grow(c.IncOff[:0], n+1)[:n+1]
	clear(incOff)
	for i := 0; i < m; i++ {
		incOff[c.PairU[i]+1]++
		incOff[c.PairV[i]+1]++
	}
	for v := 0; v < n; v++ {
		incOff[v+1] += incOff[v]
	}
	// Fill with incOff[v] as v's cursor, which leaves it at v's end —
	// the start of v+1 — then shift the offsets back into place.
	incIdx := slices.Grow(c.IncIdx[:0], 2*m)[:2*m]
	for i := 0; i < m; i++ {
		u, v := c.PairU[i], c.PairV[i]
		incIdx[incOff[u]] = int32(i)
		incOff[u]++
		incIdx[incOff[v]] = int32(i)
		incOff[v]++
	}
	copy(incOff[1:], incOff[:n])
	incOff[0] = 0
	return &Graph{n: n, pairU: c.PairU, pairV: c.PairV, pairP: c.PairP, incOff: incOff, incIdx: incIdx}
}

// duplicatePair returns the index of a pair listed twice, or -1. Each
// vertex stamps the far endpoints of its incident pairs into one
// per-vertex mark array; a far endpoint already stamped by the same
// vertex is a repeated pair.
func (g *Graph) duplicatePair() int {
	mark := make([]int32, g.n)
	for v := 0; v < g.n; v++ {
		stamp := int32(v + 1)
		for _, idx := range g.Incident(v) {
			w := g.pairV[idx]
			if int(w) == v {
				w = g.pairU[idx]
			}
			if mark[w] == stamp {
				return int(idx)
			}
			mark[w] = stamp
		}
	}
	return -1
}

// FromCertain lifts a deterministic graph into an uncertain graph whose
// every edge has probability 1.
func FromCertain(g *graph.Graph) *Graph {
	pairs := make([]Pair, 0, g.NumEdges())
	g.ForEachEdge(func(u, v int) {
		pairs = append(pairs, Pair{U: u, V: v, P: 1})
	})
	ug, err := New(g.NumVertices(), pairs)
	if err != nil {
		// A valid certain graph cannot produce invalid pairs.
		panic(err)
	}
	return ug
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumPairs returns the size of the candidate set |E_C|.
func (g *Graph) NumPairs() int { return len(g.pairP) }

// PairAt returns candidate pair i with U < V.
func (g *Graph) PairAt(i int) Pair {
	return Pair{U: int(g.pairU[i]), V: int(g.pairV[i]), P: g.pairP[i]}
}

// PairProb returns the existence probability of candidate pair i.
func (g *Graph) PairProb(i int) float64 { return g.pairP[i] }

// Pairs materializes the candidate pairs as a freshly allocated slice
// (the graph stores them columnar; see Columns for the zero-copy view).
func (g *Graph) Pairs() []Pair {
	pairs := make([]Pair, len(g.pairP))
	for i := range pairs {
		pairs[i] = g.PairAt(i)
	}
	return pairs
}

// FootprintBytes estimates the heap bytes *exclusively owned* by the
// graph's backing arrays: the columnar candidate arrays plus the CSR
// incident index. For a graph whose arrays alias externally backed
// memory — an mmap'd file (the arrays live in the page cache, shared
// across processes) or a retained upload buffer adopted zero-copy —
// FootprintBytes is 0 and the aliased size is reported by MappedBytes
// instead: dropping such a graph frees essentially nothing, so a
// serving registry charges only FootprintBytes against its global
// memory budget and its eviction accounting stays honest. Derived
// per-query state (samplers, BFS scratch, accumulators) is excluded
// either way.
func (g *Graph) FootprintBytes() int64 {
	if g.mapped > 0 {
		return 0
	}
	return int64(len(g.pairP))*16 + // pairU+pairV (4+4) and pairP (8)
		int64(len(g.incOff))*8 + int64(len(g.incIdx))*4
}

// MappedBytes returns the size of the externally backed read-only
// region the graph's arrays alias (an mmap'd .ugb file, or the
// caller-retained buffer a zero-copy decode adopted), or 0 for a graph
// owning its arrays on the heap.
func (g *Graph) MappedBytes() int64 { return g.mapped }

// Incident returns the indices into the candidate list of the pairs
// incident to v, in candidate-list order: a subslice of the flat CSR
// index, shared with the graph and not to be modified.
func (g *Graph) Incident(v int) []int32 {
	return g.incIdx[g.incOff[v]:g.incOff[v+1]]
}

// IncidentProbs returns the probabilities of the candidate pairs
// incident to v, freshly allocated.
func (g *Graph) IncidentProbs(v int) []float64 {
	return g.AppendIncidentProbs(nil, v)
}

// AppendIncidentProbs appends v's incident candidate probabilities to
// dst and returns the extended slice — the reuse form of IncidentProbs
// for scans that stream every vertex through one buffer.
func (g *Graph) AppendIncidentProbs(dst []float64, v int) []float64 {
	for _, idx := range g.Incident(v) {
		dst = append(dst, g.pairP[idx])
	}
	return dst
}

// IncidentCount returns the number of candidate pairs incident to v.
func (g *Graph) IncidentCount(v int) int {
	return int(g.incOff[v+1] - g.incOff[v])
}

// ExpectedDegree returns E[d_v] = sum of incident probabilities.
func (g *Graph) ExpectedDegree(v int) float64 {
	var sum float64
	for _, idx := range g.Incident(v) {
		sum += g.pairP[idx]
	}
	return sum
}

// ExpectedNumEdges returns E[S_NE] = sum over pairs of p(e), the exact
// closed form of Section 6.2.
func (g *Graph) ExpectedNumEdges() float64 {
	var sum float64
	for _, p := range g.pairP {
		sum += p
	}
	return sum
}

// ExpectedAverageDegree returns E[S_AD] = (2/n) * sum p(e).
func (g *Graph) ExpectedAverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * g.ExpectedNumEdges() / float64(g.n)
}

// DegreeDist returns the distribution of v's degree in G̃: a
// Poisson-binomial over the incident candidate probabilities, exact up
// to threshold terms and normal-approximated beyond (threshold <= 0
// selects pbinom.DefaultExactThreshold).
func (g *Graph) DegreeDist(v int, threshold int) pbinom.Dist {
	return pbinom.New(g.IncidentProbs(v), threshold)
}

// SampleWorld draws one possible world W ~ Pr(W) by materializing each
// candidate pair independently with its probability (Eq. 1). The RNG
// draw protocol — one Float64 per candidate pair with 0 < p < 1, in
// candidate-list order — is shared with Sampler.Sample, so both paths
// produce the identical world from the identical RNG state. The
// returned graph owns exactly-sized buffers; callers looping over many
// worlds should hold a Sampler instead, which allocates nothing per
// world.
func (g *Graph) SampleWorld(rng *rand.Rand) *graph.Graph {
	present := make([]bool, len(g.pairP))
	m := 0
	for i, p := range g.pairP {
		if p > 0 && (p >= 1 || rng.Float64() < p) {
			present[i] = true
			m++
		}
	}
	offsets := make([]int64, g.n+1)
	for i := range g.pairP {
		if present[i] {
			offsets[g.pairU[i]+1]++
			offsets[g.pairV[i]+1]++
		}
	}
	for v := 0; v < g.n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]int32, 2*m)
	fill := make([]int64, g.n)
	for i := range g.pairP {
		if !present[i] {
			continue
		}
		u, v := g.pairU[i], g.pairV[i]
		neighbors[offsets[u]+fill[u]] = v
		fill[u]++
		neighbors[offsets[v]+fill[v]] = u
		fill[v]++
	}
	for v := 0; v < g.n; v++ {
		slices.Sort(neighbors[offsets[v]:offsets[v+1]])
	}
	return graph.NewCSR(offsets, neighbors, m)
}

// WorldLogProb returns the log-probability ln Pr(W) of a possible world
// given as the set of materialized candidate indices; any candidate pair
// with p in {0, 1} must agree with the world or the result is -Inf.
// Primarily a testing aid for the possible-world semantics.
func (g *Graph) WorldLogProb(materialized map[int]bool) float64 {
	var lp float64
	for i, p := range g.pairP {
		if materialized[i] {
			lp += logOrNegInf(p)
		} else {
			lp += logOrNegInf(1 - p)
		}
	}
	return lp
}
