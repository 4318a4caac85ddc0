package core

import (
	"sort"
	"sync"

	"uncertaingraph/internal/graph"
)

// NeighborhoodDegreeProperty is the paper's P2: the adversary knows the
// degree of the target and the degrees of its neighbours (Thompson–Yao
// style knowledge, Section 3's property list). A vertex's value is the
// descending multiset (deg(v), deg(n_1), deg(n_2), ...).
//
// Values are interned into dense ids (the dictionary lives in the
// property instance), and Distance is the L1 distance between the
// zero-padded sorted degree vectors — the natural specialization of the
// paper's "edit distance between subgraphs" remark for P2. Values must
// be called before Distance, which is the order every caller in this
// package uses; a fresh instance should be used per graph.
//
// The (k, ε) *verification* in this package remains degree-based, as in
// the paper's experiments; P2 refines the uniqueness scores that decide
// where the uncertainty budget is spent.
type NeighborhoodDegreeProperty struct {
	// mu serializes Values: σ probes running concurrently all ask for
	// the values, and the interning must not race with itself. The
	// index persists across calls, so repeated calls on the same graph
	// return the same ids and leave dict unchanged — which is what lets
	// Distance read dict without the lock.
	mu    sync.Mutex
	index map[string]int
	dict  [][]int
}

// NewNeighborhoodDegreeProperty returns an empty-dictionary P2 property.
func NewNeighborhoodDegreeProperty() *NeighborhoodDegreeProperty {
	return &NeighborhoodDegreeProperty{}
}

// Name implements Property.
func (p *NeighborhoodDegreeProperty) Name() string { return "neighborhood-degrees" }

// Values implements Property: it computes each vertex's signature and
// interns it, returning dictionary ids.
func (p *NeighborhoodDegreeProperty) Values(g *graph.Graph) []int {
	n := g.NumVertices()
	degs := g.Degrees()
	out := make([]int, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.index == nil {
		p.index = make(map[string]int, n)
	}
	for v := 0; v < n; v++ {
		sig := make([]int, 0, 1+degs[v])
		sig = append(sig, degs[v])
		for _, u := range g.Neighbors(v) {
			sig = append(sig, degs[u])
		}
		sort.Sort(sort.Reverse(sort.IntSlice(sig[1:])))
		key := sigKey(sig)
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

// Distance implements Property: L1 distance between the two signatures,
// zero-padded to equal length.
func (p *NeighborhoodDegreeProperty) Distance(a, b int) float64 {
	if a == b {
		return 0
	}
	sa, sb := p.dict[a], p.dict[b]
	var dist float64
	la, lb := len(sa), len(sb)
	max := la
	if lb > max {
		max = lb
	}
	for i := 0; i < max; i++ {
		var va, vb int
		if i < la {
			va = sa[i]
		}
		if i < lb {
			vb = sb[i]
		}
		if va > vb {
			dist += float64(va - vb)
		} else {
			dist += float64(vb - va)
		}
	}
	return dist
}

func sigKey(sig []int) string {
	buf := make([]byte, 0, 4*len(sig))
	for _, d := range sig {
		buf = append(buf, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	}
	return string(buf)
}
