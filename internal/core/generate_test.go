package core

import (
	"math"
	"testing"

	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

func TestSelectCandidatesExactTarget(t *testing.T) {
	g := testGraph(31, 200)
	values := DegreeProperty{}.Values(g)
	uniq := UniquenessScores(values, DegreeProperty{}.Distance, 0.5)
	alias := randx.NewAlias(uniq)
	if alias == nil {
		t.Fatal("alias construction failed")
	}
	for _, target := range []int{g.NumEdges(), 2 * g.NumEdges(), 3 * g.NumEdges()} {
		ec, ok := selectCandidates(g, alias, make([]bool, g.NumVertices()), target, randx.New(32), new(trialScratch))
		if !ok {
			t.Fatalf("selection failed for target %d", target)
		}
		if len(ec) != target {
			t.Errorf("|E_C| = %d, want %d", len(ec), target)
		}
		// No duplicates and flags must match the graph.
		seen := map[int64]bool{}
		for _, c := range ec {
			key := graph.PairKey(int(c.u), int(c.v), g.NumVertices())
			if seen[key] {
				t.Fatal("duplicate candidate")
			}
			seen[key] = true
			if c.isEdge != g.HasEdge(int(c.u), int(c.v)) {
				t.Fatal("isEdge flag wrong")
			}
		}
	}
}

func TestGenerateObfuscationAllWhiteNoise(t *testing.T) {
	// q=1: every perturbation is uniform; probabilities stay valid and
	// heavy noise is injected.
	g := testGraph(33, 150)
	att := GenerateObfuscation(g, 0.01, Params{K: 2, Eps: 0.5, Q: 1, Trials: 1, Rng: randx.New(34)})
	if att.Failed() {
		t.Skip("all-white-noise attempt can miss a strict target; not the point here")
	}
	var sum float64
	for _, pr := range att.G.Pairs() {
		if pr.P < 0 || pr.P > 1 {
			t.Fatalf("invalid probability %v", pr.P)
		}
		sum += pr.P
	}
	// Uniform perturbations mean the expected edge probability over
	// original edges is ~0.5, far below the low-sigma regime.
	avg := sum / float64(att.G.NumPairs())
	if avg > 0.6 || avg < 0.2 {
		t.Errorf("average probability %v, want ~0.4 under pure white noise", avg)
	}
}

func TestGenerateObfuscationCompleteGraphClampsTarget(t *testing.T) {
	// On (nearly) complete graphs, c|E| exceeds C(n,2); the target must
	// clamp instead of looping forever.
	g := gen.ErdosRenyiGNP(randx.New(35), 14, 1)
	att := GenerateObfuscation(g, 0.3, Params{K: 2, Eps: 0.4, C: 3, Trials: 1, Rng: randx.New(36)})
	if att.Failed() {
		t.Skip("tiny complete graph may not be obfuscatable; the loop-termination is what matters")
	}
	if att.G.NumPairs() > 14*13/2 {
		t.Fatalf("|E_C| = %d exceeds pair count", att.G.NumPairs())
	}
}

func TestGenerateObfuscationZeroEps(t *testing.T) {
	// eps = 0: H is empty and every vertex must be obfuscated. On a
	// graph of clones that is satisfiable even at low k.
	b := graph.NewBuilder(40)
	for i := 0; i < 40; i += 2 {
		b.AddEdge(i, i+1)
	}
	g := b.Build() // perfect matching: all degrees 1
	att := GenerateObfuscation(g, 0.2, Params{K: 4, Eps: 0, Trials: 2, Rng: randx.New(37)})
	if att.Failed() {
		t.Fatal("matching graph should obfuscate at k=4 eps=0")
	}
	if att.EpsTilde != 0 {
		t.Errorf("EpsTilde = %v, want 0", att.EpsTilde)
	}
}

func TestWithDefaultsPaperValues(t *testing.T) {
	p := Params{}.withDefaults()
	if p.C != 2 || p.Trials != 5 || p.Delta != 1e-8 || p.SigmaInit != 1 {
		t.Errorf("defaults = %+v", p)
	}
	if p.Property == nil {
		t.Error("nil property not defaulted")
	}
	if got := p.resolveSeed(); got != 1 {
		t.Errorf("zero-value params resolve seed %d, want the historical 1", got)
	}
	if got := (Params{Seed: 7}).resolveSeed(); got != 7 {
		t.Errorf("explicit seed resolves to %d, want 7", got)
	}
	// The legacy Rng field still pins the run: same Rng seed, same resolved seed.
	a := Params{Rng: randx.New(5)}.resolveSeed()
	b := Params{Rng: randx.New(5)}.resolveSeed()
	if a != b || a == 1 {
		t.Errorf("legacy Rng seeds resolve to %d/%d, want equal and non-default", a, b)
	}
	// Explicit sub-1 C clamps to 1, not to the default.
	if got := (Params{C: 0.5}).withDefaults().C; got != 1 {
		t.Errorf("C=0.5 clamps to %v, want 1", got)
	}
}

func TestAttemptFailed(t *testing.T) {
	if !(Attempt{EpsTilde: math.Inf(1)}).Failed() {
		t.Error("infinite EpsTilde should mean failure")
	}
	if (Attempt{EpsTilde: 0.01}).Failed() {
		t.Error("finite EpsTilde is success")
	}
}
