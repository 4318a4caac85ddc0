package core

import (
	"context"
	"slices"
	"testing"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

func TestP2InterningAndDistance(t *testing.T) {
	// Path 0-1-2-3: end vertices share the signature (1; [2]); middle
	// vertices share (2; [2,1]).
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	p := NewNeighborhoodDegreeProperty()
	vals := p.Values(g)
	if vals[0] != vals[3] {
		t.Error("symmetric end vertices must share a P2 value")
	}
	if vals[1] != vals[2] {
		t.Error("symmetric middle vertices must share a P2 value")
	}
	if vals[0] == vals[1] {
		t.Error("ends and middles must differ under P2")
	}
	if p.Distance(vals[0], vals[0]) != 0 {
		t.Error("identical values have distance 0")
	}
	// (1;[2]) vs (2;[2,1]): padded L1 = |1-2| + |2-2| + |0-1| = 2.
	if d := p.Distance(vals[0], vals[1]); d != 2 {
		t.Errorf("distance = %v, want 2", d)
	}
}

func TestP2RefinesDegreeProperty(t *testing.T) {
	// Star + pendant: vertices 1..4 all have degree 1 (identical under
	// P1), but vertex 5 hangs off a degree-1 neighbor... build: hub 0
	// with leaves 1,2,3; path 4-5.
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 4, V: 5}})
	p1vals := DegreeProperty{}.Values(g)
	if p1vals[1] != p1vals[4] {
		t.Fatal("setup: both should have degree 1")
	}
	p2 := NewNeighborhoodDegreeProperty()
	p2vals := p2.Values(g)
	if p2vals[1] == p2vals[4] {
		t.Error("P2 must distinguish a star leaf from a path end")
	}
	if p2vals[1] != p2vals[2] || p2vals[2] != p2vals[3] {
		t.Error("star leaves share P2 value")
	}
}

func TestP2UniquenessHubsMoreUnique(t *testing.T) {
	g := testGraph(21, 300)
	p := NewNeighborhoodDegreeProperty()
	vals := p.Values(g)
	uniq := UniquenessScores(vals, p.Distance, 1.0)
	// The max-degree hub must be among the most unique vertices.
	hub, maxDeg := 0, -1
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(v) > maxDeg {
			maxDeg, hub = g.Degree(v), v
		}
	}
	above := 0
	for _, u := range uniq {
		if u > uniq[hub] {
			above++
		}
	}
	if above > g.NumVertices()/10 {
		t.Errorf("hub uniqueness rank too low: %d vertices above it", above)
	}
}

func TestObfuscateWithP2Property(t *testing.T) {
	// End-to-end: P2 drives uniqueness, degree drives verification.
	g := testGraph(22, 250)
	res, err := Obfuscate(context.Background(), g, Params{
		K: 5, Eps: 0.12, Trials: 2, Delta: 1e-3,
		Property: NewNeighborhoodDegreeProperty(),
		Rng:      randx.New(23),
	})
	if err != nil {
		t.Fatal(err)
	}
	model := adversary.UncertainModel{G: res.G}
	if !adversary.IsKEpsObfuscation(model, g.Degrees(), 5, 0.12) {
		t.Error("P2-scored obfuscation fails degree verification")
	}
}

// TestInterningPropertiesStableAcrossCalls pins that the interning
// properties return the same ids on every call for one graph — the
// σ probes each ask, concurrently when Workers > 1 — so their
// dictionaries stop growing after the first call.
func TestInterningPropertiesStableAcrossCalls(t *testing.T) {
	g := testGraph(22, 250)
	p2, p3 := NewNeighborhoodDegreeProperty(), NewRadiusOneProperty()
	for _, p := range []Property{p2, p3} {
		first := p.Values(g)
		size := len(p2.dict) + len(p3.dict)
		for i := 0; i < 3; i++ {
			if again := p.Values(g); !slices.Equal(again, first) {
				t.Fatalf("%s: call %d returned different ids", p.Name(), i+2)
			}
		}
		if got := len(p2.dict) + len(p3.dict); got != size {
			t.Errorf("%s: dictionary grew from %d to %d on repeated calls", p.Name(), size, got)
		}
	}
}
