package adversary

import (
	"math"
	"math/rand"
	"testing"

	"uncertaingraph/internal/uncertain"
)

// genericModel hides an UncertainModel's concrete type, so the scan
// takes the interface path: one pbinom.Dist per vertex through VertexX,
// every requested column through Dist.Prob. It is the oracle for the
// concrete Poisson-binomial kernel.
type genericModel struct{ UncertainModel }

// oracleGraph builds an uncertain graph on n vertices in which vertex i
// of hubs gets exactly hubs[i] incident pairs (so the exact/CLT switch
// is hit at chosen L), on top of sparse random pairs. With zeroOne all
// probabilities are 0 or 1 (σ = 0).
func oracleGraph(t *testing.T, seed int64, n int, hubs []int, zeroOne bool) *uncertain.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prob := func() float64 {
		if zeroOne {
			return float64(rng.Intn(2))
		}
		return rng.Float64()
	}
	seen := map[[2]int]bool{}
	var pairs []uncertain.Pair
	add := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: prob()})
	}
	// Hubs take vertices 0..len(hubs)-1 and link only to vertices past
	// the hub block, so each hub's incident count is exactly its target.
	first := len(hubs)
	for h, deg := range hubs {
		for j := 0; j < deg; j++ {
			add(h, first+(h*97+j*13)%(n-first))
		}
	}
	for i := 0; i < 4*n; i++ {
		add(first+rng.Intn(n-first), first+rng.Intn(n-first))
	}
	g, err := uncertain.New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for h, deg := range hubs {
		if got := g.IncidentCount(h); got != deg {
			t.Fatalf("hub %d has %d incident pairs, want %d", h, got, deg)
		}
	}
	return g
}

// TestConcreteScanMatchesGenericPath pins the concrete scan of an
// UncertainModel to the generic interface path bit for bit, across the
// exact/CLT boundary (L = threshold and threshold+1), σ = 0 graphs,
// custom thresholds, gapped, unsorted, repeated and out-of-range
// columns, and worker counts that split the 512-vertex chunks
// differently.
func TestConcreteScanMatchesGenericPath(t *testing.T) {
	omegaSets := map[string][]int{
		"sorted-dense": seq(0, 70),
		"gapped":       {0, 1, 2, 5, 9, 10, 11, 29, 30, 31, 32, 40, 41, 60},
		"unsorted":     {31, 3, 30, 2, 32, 1, 0, 45, 44, 46, 7, 6},
		"out-of-range": {-3, -1, 0, 4, 5, 1000, 6, 7, 500, 31, 32},
		"repeats":      {5, 5, 6, 4, 31, 31, 32},
		"beyond-all":   {900, 901},
	}
	cases := []struct {
		name      string
		threshold int
		hubs      []int
		zeroOne   bool
	}{
		{"default-threshold", 0, []int{30, 31, 29, 45, 60}, false},
		{"custom-threshold", 5, []int{5, 6, 12, 4}, false},
		{"sigma-zero", 0, []int{30, 31, 50}, true},
		{"sigma-zero-custom", 3, []int{3, 4, 9}, true},
	}
	for _, tc := range cases {
		g := oracleGraph(t, int64(len(tc.name)), 1300, tc.hubs, tc.zeroOne)
		for setName, omegas := range omegaSets {
			for _, workers := range []int{1, 2, 4} {
				m := UncertainModel{G: g, ExactThreshold: tc.threshold, Workers: workers}
				got := columnEntropies(m, omegas)
				want := columnEntropies(genericModel{m}, omegas)
				for i, omega := range omegas {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%s/workers=%d: H(Y_%d) = %v, generic path %v",
							tc.name, setName, workers, omega, got[i], want[i])
					}
				}
				values := make([]int, g.NumVertices())
				for v := range values {
					values[v] = g.IncidentCount(v) % 40
				}
				a, b := NotObfuscatedFraction(m, values, 8), NotObfuscatedFraction(genericModel{m}, values, 8)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s/workers=%d: ε̃ = %v, generic path %v", tc.name, workers, a, b)
				}
			}
		}
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
