package uncertain

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

// figure1b builds the uncertain graph of paper Figure 1(b), whose X/Y
// matrices are given in Table 1. The candidate pairs and probabilities
// are reverse-engineered in the Table 1 caption discussion: p(v1,v2)=0.7,
// p(v1,v3)=0.9, p(v1,v4)=0.8, p(v2,v3)=0.8, p(v2,v4)=0.1, p(v3,v4)=0.
func figure1b(t testing.TB) *Graph {
	g, err := New(4, []Pair{
		{0, 1, 0.7},
		{0, 2, 0.9},
		{0, 3, 0.8},
		{1, 2, 0.8},
		{1, 3, 0.1},
		{2, 3, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		pairs []Pair
	}{
		{"self-loop", 3, []Pair{{1, 1, 0.5}}},
		{"out-of-range", 3, []Pair{{0, 3, 0.5}}},
		{"negative-vertex", 3, []Pair{{-1, 0, 0.5}}},
		{"bad-prob-high", 3, []Pair{{0, 1, 1.5}}},
		{"bad-prob-low", 3, []Pair{{0, 1, -0.1}}},
		{"duplicate", 3, []Pair{{0, 1, 0.5}, {1, 0, 0.2}}},
		{"duplicate-apart", 6, []Pair{{4, 5, 0.5}, {0, 1, 0.1}, {2, 5, 0.3}, {1, 3, 0.2}, {5, 4, 0.9}}},
	}
	for _, c := range cases {
		if _, err := New(c.n, c.pairs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestAssembleReusesBuffersAndMatchesNew pins the shared CSR builder:
// columns assembled into recycled, larger and dirty index buffers give
// the same graph as New, and pass FromColumns's full validation.
func TestAssembleReusesBuffersAndMatchesNew(t *testing.T) {
	rng := randx.New(3)
	var incOff []int64
	var incIdx []int32
	for _, n := range []int{200, 50, 120, 0} {
		var c Columns
		seen := map[int64]bool{}
		for i := 0; n > 1 && i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || seen[graph.PairKey(u, v, n)] {
				continue
			}
			seen[graph.PairKey(u, v, n)] = true
			c.PairU = append(c.PairU, int32(min(u, v)))
			c.PairV = append(c.PairV, int32(max(u, v)))
			c.PairP = append(c.PairP, rng.Float64())
		}
		pairs := make([]Pair, len(c.PairP))
		for i := range pairs {
			pairs[i] = Pair{U: int(c.PairV[i]), V: int(c.PairU[i]), P: c.PairP[i]}
		}
		want, err := New(n, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range incIdx {
			incIdx[i] = -7 // stale contents must not leak into the index
		}
		c.IncOff, c.IncIdx = incOff, incIdx
		got := Assemble(n, c)
		if _, err := FromColumns(n, got.Columns(), 0); err != nil {
			t.Fatalf("n=%d: assembled graph fails validation: %v", n, err)
		}
		for v := 0; v < n; v++ {
			a, b := got.Incident(v), want.Incident(v)
			if len(a) != len(b) {
				t.Fatalf("n=%d vertex %d: %d incident pairs, New has %d", n, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d vertex %d: incident %v, New has %v", n, v, a, b)
				}
			}
		}
		cols := got.Columns()
		incOff, incIdx = cols.IncOff, cols.IncIdx
	}
}

func TestExpectedDegreeStats(t *testing.T) {
	g := figure1b(t)
	// E[S_NE] = sum p = 0.7+0.9+0.8+0.8+0.1+0 = 3.3.
	if got := g.ExpectedNumEdges(); math.Abs(got-3.3) > 1e-12 {
		t.Errorf("ExpectedNumEdges = %v, want 3.3", got)
	}
	if got := g.ExpectedAverageDegree(); math.Abs(got-1.65) > 1e-12 {
		t.Errorf("ExpectedAverageDegree = %v, want 1.65", got)
	}
	// Expected degree of v1 = 0.7+0.9+0.8 = 2.4.
	if got := g.ExpectedDegree(0); math.Abs(got-2.4) > 1e-12 {
		t.Errorf("ExpectedDegree(v1) = %v, want 2.4", got)
	}
	if got := g.ExpectedDegree(3); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("ExpectedDegree(v4) = %v, want 0.9", got)
	}
}

func TestDegreeDistMatchesTable1(t *testing.T) {
	g := figure1b(t)
	want := [][]float64{
		{0.006, 0.092, 0.398, 0.504},
		{0.054, 0.348, 0.542, 0.056},
		{0.020, 0.260, 0.720, 0.000},
		{0.180, 0.740, 0.080, 0.000},
	}
	for v := 0; v < 4; v++ {
		d := g.DegreeDist(v, 0)
		for w := 0; w < 4; w++ {
			if math.Abs(d.Prob(w)-want[v][w]) > 1e-9 {
				t.Errorf("X_v%d(%d) = %v, want %v", v+1, w, d.Prob(w), want[v][w])
			}
		}
	}
}

func TestSampleWorldFrequencies(t *testing.T) {
	g := figure1b(t)
	rng := randx.New(17)
	const worlds = 50000
	counts := make(map[int64]int)
	for i := 0; i < worlds; i++ {
		w := g.SampleWorld(rng)
		w.ForEachEdge(func(u, v int) {
			counts[graph.PairKey(u, v, 4)]++
		})
	}
	for _, pr := range g.Pairs() {
		got := float64(counts[graph.PairKey(pr.U, pr.V, 4)]) / worlds
		if math.Abs(got-pr.P) > 0.01 {
			t.Errorf("pair (%d,%d): frequency %v, want %v", pr.U, pr.V, got, pr.P)
		}
	}
}

func TestSampleWorldIsValidGraph(t *testing.T) {
	g := figure1b(t)
	rng := randx.New(18)
	for i := 0; i < 100; i++ {
		if err := g.SampleWorld(rng).Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFromCertainRoundTrip(t *testing.T) {
	orig := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 2, V: 3}})
	ug := FromCertain(orig)
	if ug.NumPairs() != 4 {
		t.Fatalf("pairs = %d", ug.NumPairs())
	}
	if got := ug.ExpectedNumEdges(); got != 4 {
		t.Errorf("expected edges = %v", got)
	}
	// Every sampled world is the original graph.
	w := ug.SampleWorld(randx.New(1))
	if w.NumEdges() != 4 || !w.HasEdge(2, 3) || w.HasEdge(1, 2) {
		t.Error("certain graph world differs from original")
	}
}

func TestWorldLogProb(t *testing.T) {
	g, err := New(2, []Pair{{0, 1, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.WorldLogProb(map[int]bool{0: true}); math.Abs(got-math.Log(0.25)) > 1e-12 {
		t.Errorf("log prob with edge = %v", got)
	}
	if got := g.WorldLogProb(nil); math.Abs(got-math.Log(0.75)) > 1e-12 {
		t.Errorf("log prob without edge = %v", got)
	}
}

func TestWorldProbabilitiesSumToOne(t *testing.T) {
	// Enumerate all worlds of the Figure 1(b) graph (2^5 non-trivial
	// pairs plus one zero pair) and check Eq. 1 defines a distribution.
	g := figure1b(t)
	m := g.NumPairs()
	var total float64
	for mask := 0; mask < 1<<m; mask++ {
		world := make(map[int]bool)
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				world[i] = true
			}
		}
		lp := g.WorldLogProb(world)
		if !math.IsInf(lp, -1) {
			total += math.Exp(lp)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("world probabilities sum to %v", total)
	}
}

func TestIORoundTrip(t *testing.T) {
	g := figure1b(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 4 || g2.NumPairs() != g.NumPairs() {
		t.Fatalf("round trip: %d vertices %d pairs", g2.NumVertices(), g2.NumPairs())
	}
	for i, pr := range g.Pairs() {
		if g2.Pairs()[i] != pr {
			t.Errorf("pair %d: %v != %v", i, g2.Pairs()[i], pr)
		}
	}
}

func TestReadWithoutHeader(t *testing.T) {
	g, err := Read(bytes.NewReader([]byte("0 1 0.5\n2 3 0.25\n")))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Errorf("inferred vertices = %d, want 4", g.NumVertices())
	}
}

func TestReadMalformed(t *testing.T) {
	for _, in := range []string{"0 1\n", "a b c\n", "0 1 2 3\n", "0 1 1.5\n"} {
		if _, err := Read(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestReadHeaderVertexCount is the regression suite for header
// handling: a vertices= count smaller than max id + 1 (or negative)
// must be rejected with an error blaming the *header*, not deferred to
// a confusing per-pair range error — while a count larger than the
// pairs need is legitimate (isolated vertices) and must be honoured.
func TestReadHeaderVertexCount(t *testing.T) {
	undersized := "# uncertain graph: vertices=3 pairs=2\n0 1 0.5\n2 3 0.25\n"
	_, err := Read(bytes.NewReader([]byte(undersized)))
	if err == nil {
		t.Fatal("undersized header accepted")
	}
	for _, needle := range []string{"header", "vertices=3", "need at least 4"} {
		if !strings.Contains(err.Error(), needle) {
			t.Errorf("undersized-header error %q missing %q", err, needle)
		}
	}

	negative := "# uncertain graph: vertices=-7 pairs=0\n"
	if _, err := Read(bytes.NewReader([]byte(negative))); err == nil ||
		!strings.Contains(err.Error(), "negative vertex count") {
		t.Errorf("negative header: err = %v, want a negative-vertex-count error", err)
	}

	oversized := "# uncertain graph: vertices=10 pairs=2\n0 1 0.5\n2 3 0.25\n"
	g, err := Read(bytes.NewReader([]byte(oversized)))
	if err != nil {
		t.Fatalf("oversized header (isolated vertices) rejected: %v", err)
	}
	if g.NumVertices() != 10 {
		t.Errorf("vertices = %d, want the header's 10", g.NumVertices())
	}
}
