package core

import (
	"sort"
	"sync"

	"uncertaingraph/internal/graph"
)

// RadiusOneProperty is the paper's P3: the adversary knows the target's
// radius-one induced subgraph (the subgraph on the vertex and its
// neighbours — Zhou–Pei style knowledge). Section 5.2 prescribes "the
// edit distance between two subgraphs" as the metric on Ω_P3.
//
// Exact graph edit distance is NP-hard, so this implementation uses the
// standard canonical-signature + lower-bound construction: a
// neighbourhood is summarized by (vertex count, edge count, sorted
// within-neighbourhood degree sequence), identical signatures intern to
// the same value, and the distance between two signatures is the edit
// lower bound |Δ vertices| + |Δ edges| + L1 distance of the padded
// degree sequences — zero iff the signatures coincide, and never
// exceeding the true edit distance by construction of each term. As
// with P2, the property drives uniqueness scoring; (k, ε) verification
// remains degree-based as in the paper's experiments.
type RadiusOneProperty struct {
	// mu serializes Values: σ probes running concurrently all ask for
	// the values, and the interning must not race with itself. The
	// index persists across calls, so repeated calls on the same graph
	// return the same ids and leave dict unchanged — which is what lets
	// Distance read dict without the lock.
	mu    sync.Mutex
	index map[string]int
	dict  []r1Signature
}

type r1Signature struct {
	vertices int
	edges    int
	// degSeq is the sorted (descending) degree sequence of the induced
	// radius-one subgraph, including the center.
	degSeq []int
}

// NewRadiusOneProperty returns an empty-dictionary P3 property.
func NewRadiusOneProperty() *RadiusOneProperty { return &RadiusOneProperty{} }

// Name implements Property.
func (p *RadiusOneProperty) Name() string { return "radius-one-subgraph" }

// Values implements Property: it computes every vertex's radius-one
// signature and interns it into dense ids.
func (p *RadiusOneProperty) Values(g *graph.Graph) []int {
	n := g.NumVertices()
	out := make([]int, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.index == nil {
		p.index = make(map[string]int, n)
	}
	for v := 0; v < n; v++ {
		sig := radiusOneSignature(g, v)
		key := r1Key(sig)
		id, ok := p.index[key]
		if !ok {
			id = len(p.dict)
			p.index[key] = id
			p.dict = append(p.dict, sig)
		}
		out[v] = id
	}
	return out
}

// Distance implements Property: the edit-distance lower bound between
// the two interned signatures.
func (p *RadiusOneProperty) Distance(a, b int) float64 {
	if a == b {
		return 0
	}
	sa, sb := p.dict[a], p.dict[b]
	dist := absInt(sa.vertices-sb.vertices) + absInt(sa.edges-sb.edges)
	la, lb := len(sa.degSeq), len(sb.degSeq)
	max := la
	if lb > max {
		max = lb
	}
	for i := 0; i < max; i++ {
		var va, vb int
		if i < la {
			va = sa.degSeq[i]
		}
		if i < lb {
			vb = sb.degSeq[i]
		}
		dist += absInt(va - vb)
	}
	return float64(dist)
}

// radiusOneSignature builds the canonical summary of the subgraph
// induced by v and its neighbours.
func radiusOneSignature(g *graph.Graph, v int) r1Signature {
	nbrs := g.Neighbors(v)
	members := make(map[int32]int, len(nbrs)+1) // vertex -> local index
	members[int32(v)] = 0
	for i, u := range nbrs {
		members[u] = i + 1
	}
	deg := make([]int, len(members))
	edges := 0
	for u, iu := range members {
		for _, w := range g.Neighbors(int(u)) {
			if iw, ok := members[w]; ok {
				deg[iu]++
				if iu < iw {
					edges++
				}
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	return r1Signature{vertices: len(members), edges: edges, degSeq: deg}
}

func r1Key(s r1Signature) string {
	buf := make([]byte, 0, 8+4*len(s.degSeq))
	push := func(d int) {
		buf = append(buf, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	}
	push(s.vertices)
	push(s.edges)
	for _, d := range s.degSeq {
		push(d)
	}
	return string(buf)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
