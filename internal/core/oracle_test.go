package core

import (
	"math/rand"
	"slices"
	"testing"

	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// mapCandidate and selectCandidatesMap are the map-indexed candidate
// selection the flat pair table replaced, kept verbatim as the oracle:
// a map from PairKey to E_C position plus a binary-search HasEdge per
// draw.
type mapCandidate struct {
	u, v   int32
	isEdge bool
}

func selectCandidatesMap(g *graph.Graph, aliasQ *randx.Alias, inH map[int]bool, target int, rng *rand.Rand) ([]mapCandidate, bool) {
	n := g.NumVertices()
	ec := make([]mapCandidate, 0, target+16)
	index := make(map[int64]int32, target+16)
	g.ForEachEdge(func(u, v int) {
		index[graph.PairKey(u, v, n)] = int32(len(ec))
		ec = append(ec, mapCandidate{u: int32(u), v: int32(v), isEdge: true})
	})
	maxDraws := 400*(target+16) + 4096
	for draws := 0; len(ec) != target; draws++ {
		if draws > maxDraws {
			return nil, false
		}
		u := aliasQ.Draw(rng)
		v := aliasQ.Draw(rng)
		if u == v || inH[u] || inH[v] {
			continue
		}
		key := graph.PairKey(u, v, n)
		if g.HasEdge(u, v) {
			if pos, ok := index[key]; ok {
				last := int32(len(ec) - 1)
				moved := ec[last]
				ec[pos] = moved
				index[graph.PairKey(int(moved.u), int(moved.v), n)] = pos
				ec = ec[:last]
				delete(index, key)
			}
		} else {
			if _, ok := index[key]; !ok {
				index[key] = int32(len(ec))
				uu, vv := u, v
				if uu > vv {
					uu, vv = vv, uu
				}
				ec = append(ec, mapCandidate{u: int32(uu), v: int32(vv), isEdge: false})
			}
		}
	}
	return ec, true
}

// TestSelectCandidatesMatchesMapOracle pins the flat pair table to the
// map-based selection: the same E_C sequence — order, endpoints and
// edge flags — and the same RNG consumption, over random graphs, seeds,
// H sizes and targets, with one scratch reused across every trial (as
// a worker reuses it across a probe's trials).
func TestSelectCandidatesMatchesMapOracle(t *testing.T) {
	s := new(trialScratch)
	for trial := 0; trial < 24; trial++ {
		rng := randx.New(int64(100 + trial))
		n := 40 + rng.Intn(260)
		var g *graph.Graph
		if trial%2 == 0 {
			g = gen.HolmeKim(rng, n, 1+rng.Intn(4), 0.3)
		} else {
			g = gen.ErdosRenyiGNP(rng, n, 0.02+0.2*rng.Float64())
		}
		uniq := UniquenessScores(DegreeProperty{}.Values(g), DegreeProperty{}.Distance, 0.1+rng.Float64())
		hSize := []int{0, 1, n / 20, n / 5}[trial%4]
		inH := topUniqueSet(uniq, hSize)
		inHMap := map[int]bool{}
		weights := make([]float64, n)
		for v, in := range inH {
			if in {
				inHMap[v] = true
			} else {
				weights[v] = uniq[v]
			}
		}
		alias := randx.NewAlias(weights)
		if alias == nil {
			continue
		}
		maxPairs := n * (n - 1) / 2
		for _, c := range []float64{1, 1.5, 2, 3} {
			target := int(c * float64(g.NumEdges()))
			if target > maxPairs {
				target = maxPairs
			}
			seed := int64(7*trial) + int64(c*10)
			rngNew, rngOld := randx.New(seed), randx.New(seed)
			got, okNew := selectCandidates(g, alias, inH, target, rngNew, s)
			want, okOld := selectCandidatesMap(g, alias, inHMap, target, rngOld)
			if okNew != okOld {
				t.Fatalf("trial %d c=%v: ok %v, oracle %v", trial, c, okNew, okOld)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d c=%v: |E_C| = %d, oracle %d", trial, c, len(got), len(want))
			}
			for i := range want {
				if got[i].u != want[i].u || got[i].v != want[i].v || got[i].isEdge != want[i].isEdge {
					t.Fatalf("trial %d c=%v: candidate %d = %+v, oracle %+v", trial, c, i, got[i], want[i])
				}
			}
			if a, b := rngNew.Int63(), rngOld.Int63(); a != b {
				t.Fatalf("trial %d c=%v: RNG streams diverge after selection", trial, c)
			}
		}
	}
}

// TestAssembledTrialMatchesPairsPath pins the columnar trial build to
// the pair-list path it replaced (a []uncertain.Pair through
// uncertain.New): identical columns and incident index, also when the
// columns reuse a larger graph's buffers.
func TestAssembledTrialMatchesPairsPath(t *testing.T) {
	g := testGraph(41, 400)
	uniq := UniquenessScores(DegreeProperty{}.Values(g), DegreeProperty{}.Distance, 0.4)
	alias := randx.NewAlias(uniq)
	params := Params{Q: 0.01}
	s := new(trialScratch)
	for _, target := range []int{3 * g.NumEdges(), 2 * g.NumEdges(), g.NumEdges()} {
		ec, ok := selectCandidates(g, alias, make([]bool, g.NumVertices()), target, randx.New(5), s)
		if !ok {
			t.Fatal("selection failed")
		}
		pairs := make([]uncertain.Pair, len(ec))
		rngA, rngB := randx.New(9), randx.New(9)
		cols := assignProbabilities(ec, uniq, 0.7, params, rngA, s.takeColumns())
		for i, c := range ec {
			pairs[i] = uncertain.Pair{U: int(c.u), V: int(c.v)}
		}
		// The pre-columnar assignment: per-pair uniqueness, then one
		// truncated-normal (or white-noise) draw per pair in E_C order.
		pairUniq := make([]float64, len(ec))
		var total float64
		for i, c := range ec {
			pairUniq[i] = (uniq[c.u] + uniq[c.v]) / 2
			total += pairUniq[i]
		}
		for i, c := range ec {
			sigmaE := 0.7 * float64(len(ec)) * pairUniq[i] / total
			var re float64
			if rngB.Float64() < params.Q {
				re = rngB.Float64()
			} else {
				re = mathx.NewTruncNormal(sigmaE).Sample(rngB)
			}
			pairs[i].P = re
			if c.isEdge {
				pairs[i].P = 1 - re
			}
		}
		want, err := uncertain.New(g.NumVertices(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		got := uncertain.Assemble(g.NumVertices(), cols)
		if !sameColumns(got.Columns(), want.Columns()) {
			t.Fatalf("target %d: assembled columns differ from the pair-list build", target)
		}
		if _, err := uncertain.FromColumns(g.NumVertices(), got.Columns(), 0); err != nil {
			t.Fatalf("target %d: assembled columns fail validation: %v", target, err)
		}
		s.recycle(got)
	}
}

func sameColumns(a, b uncertain.Columns) bool {
	return slices.Equal(a.PairU, b.PairU) && slices.Equal(a.PairV, b.PairV) &&
		slices.Equal(a.PairP, b.PairP) && slices.Equal(a.IncOff, b.IncOff) &&
		slices.Equal(a.IncIdx, b.IncIdx)
}
