package core

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/parallel"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// Attempt is the outcome of one GenerateObfuscation call.
type Attempt struct {
	// EpsTilde is the achieved fraction of non-k-obfuscated vertices;
	// math.Inf(1) when no trial met the ε bound.
	EpsTilde float64
	// G is the best uncertain graph found, nil on failure.
	G *uncertain.Graph
}

// Failed reports whether the attempt found no (k, ε)-obfuscation.
func (a Attempt) Failed() bool { return math.IsInf(a.EpsTilde, 1) }

// GenerateObfuscation is Algorithm 2: it tries (up to t times) to build
// a (k, ε)-obfuscation of g with uncertainty parameter sigma, returning
// the best attempt.
//
// Trials run on up to params.Workers goroutines, each driving an RNG
// stream derived from (params.Seed, σ, trial index), and the winner is
// the success with the lowest ε̃, ties broken by the lower trial index —
// the same attempt the sequential best-of-t loop keeps. All t trials
// are examined (a later trial may beat an earlier success), so the
// result is bit-identical for every Workers value (including 1).
func GenerateObfuscation(g *graph.Graph, sigma float64, params Params) Attempt {
	params = params.withDefaults()
	params.Seed = params.resolveSeed()
	att, _ := generateObfuscation(nil, g, sigma, params)
	return att
}

// generateObfuscation runs Algorithm 2 with a pre-resolved params.Seed.
// Cancelling ctx abandons the whole probe (used by Obfuscate to discard
// speculative σ candidates and to propagate caller cancellation); a nil
// ctx never cancels. The second return value reports how many trials
// the probe examines — always t, since best-of-t selection must look at
// every trial — the work measure behind Result.Trials.
func generateObfuscation(ctx context.Context, g *graph.Graph, sigma float64, params Params) (Attempt, int) {
	n := g.NumVertices()
	values := params.Property.Values(g)
	dist := params.Property.Distance

	// Line 1: σ-uniqueness of every vertex (θ = σ, Section 5.2).
	uniq := UniquenessScores(values, dist, sigma)

	// Line 2: exclude the ⌈ε/2·n⌉ most unique vertices from perturbation.
	hSize := int(math.Ceil(params.Eps / 2 * float64(n)))
	if params.DisableHExclusion {
		hSize = 0
	}
	inH := topUniqueSet(uniq, hSize)

	// Line 3: sampling distribution Q(v) ∝ U_σ(P(v)) on V \ H.
	weights := make([]float64, n)
	for v, u := range uniq {
		if !inH[v] {
			weights[v] = u
		}
	}
	aliasQ := randx.NewAlias(weights)

	failed := Attempt{EpsTilde: math.Inf(1)}
	if aliasQ == nil {
		// All mass excluded (tiny graphs with large ε) — cannot sample.
		return failed, params.Trials
	}

	degrees := g.Degrees()
	targetEC := int(math.Round(params.C * float64(g.NumEdges())))
	if max := n * (n - 1) / 2; targetEC > max {
		targetEC = max
	}

	// Split the worker budget between the two parallel levels: up to
	// trialWorkers trials in flight, each scanning with scanWorkers, so
	// one probe stays within ~params.Workers busy goroutines. (Obfuscate
	// may hold a few speculative probes in flight on top — see Params.)
	workers := params.workerCount()
	trialWorkers := workers
	if trialWorkers > params.Trials {
		trialWorkers = params.Trials
	}
	scanWorkers := workers / trialWorkers
	if scanWorkers < 1 {
		scanWorkers = 1
	}

	// runTrial is a pure function of its trial index: all randomness
	// comes from the (seed, σ, trial) stream, so results are independent
	// of scheduling — the scratch only lends memory. It bails out
	// between stages — and per scan chunk — when the probe was
	// cancelled. A graph it builds and then rejects goes straight back
	// to the scratch.
	runTrial := func(trial int, s *trialScratch) Attempt {
		if cancelled(ctx) {
			return failed
		}
		rng := trialRng(params.Seed, sigma, trial)
		ec, ok := selectCandidates(g, aliasQ, inH, targetEC, rng, s)
		if !ok {
			return failed
		}
		ug := uncertain.Assemble(n, assignProbabilities(ec, uniq, sigma, params, rng, s.takeColumns()))
		if cancelled(ctx) {
			s.recycle(ug)
			return failed
		}
		// Line 20: fraction of vertices not k-obfuscated.
		model := adversary.UncertainModel{
			G:              ug,
			ExactThreshold: params.ExactThreshold,
			Workers:        scanWorkers,
			Ctx:            ctx,
		}
		epsPrime := adversary.NotObfuscatedFraction(model, degrees, params.K)
		// Line 21: the trial succeeds when ε' stays within the budget —
		// unless the scan was cancelled and aborted early, leaving an ε'
		// that is not the pure probe value.
		if !cancelled(ctx) && epsPrime <= params.Eps {
			return Attempt{EpsTilde: epsPrime, G: ug}
		}
		s.recycle(ug)
		return failed
	}

	// Deterministic winner under any completion order: the success with
	// the lowest ε̃, ties broken by the lower trial index — the attempt
	// the sequential best-of-t loop (strict `<` against the running
	// best) keeps. Folding into a running best as trials finish, rather
	// than collecting all t attempts, lets each loser graph (~c·|E|
	// pairs) hand its buffers to a later trial on the same worker.
	win := winner{att: failed, idx: params.Trials}
	scratch := make([]*trialScratch, trialWorkers)
	_ = parallel.ForWorkers(ctx, params.Trials, trialWorkers, func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = new(trialScratch)
		}
		scratch[w].recycle(win.offer(runTrial(i, scratch[w]), i))
	})
	return win.att, params.Trials
}

// winner folds trial outcomes into the deterministic best-of-t choice:
// lexicographic minimum of (ε̃, trial index) over the successes.
type winner struct {
	mu  sync.Mutex
	att Attempt
	idx int
}

// offer folds one trial outcome in and returns the graph that lost —
// the previous best when att displaces it, att's own otherwise — so the
// caller can reuse its buffers; nil when nothing was discarded.
func (w *winner) offer(att Attempt, trial int) *uncertain.Graph {
	if att.Failed() {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if att.EpsTilde < w.att.EpsTilde ||
		(att.EpsTilde == w.att.EpsTilde && trial < w.idx) {
		lost := w.att.G
		w.att, w.idx = att, trial
		return lost
	}
	return att.G
}

// cancelled reports whether the probe's context has been cancelled; a
// nil context never is.
func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// candidate is one pair of E_C, flagged by whether it is an original
// edge, with the pair-table slot that maps it back to its position.
type candidate struct {
	u, v   int32
	slot   int32
	isEdge bool
}

// trialScratch is the working memory one worker lends its successive
// trials: the E_C list, its pair table, and the column buffers of the
// next uncertain graph — free ones only, taken back from graphs that
// were rejected or lost the best-of-t choice. A probe thus allocates
// these once per worker rather than once per trial.
type trialScratch struct {
	ec    []candidate
	table pairTable
	cols  uncertain.Columns
}

// takeColumns hands the free column buffers to a graph under
// construction; the graph owns them until recycle returns them.
func (s *trialScratch) takeColumns() uncertain.Columns {
	cols := s.cols
	s.cols = uncertain.Columns{}
	return cols
}

// recycle takes back the buffers of a graph nobody will read again; a
// nil graph is a no-op.
func (s *trialScratch) recycle(g *uncertain.Graph) {
	if g != nil {
		s.cols = g.Columns()
	}
}

// pairTable is an open-addressing (linear probing) hash table from a
// pair's graph.PairKey to its position in E_C. It is filled with the
// original edges E first; an original edge removed from E_C keeps its
// slot as a tombstone at position -1, and an added non-edge is never
// removed. One probe per drawn pair therefore answers both questions of
// lines 9-11: an empty slot is a non-edge not in E_C, a tombstone an
// original edge already removed, and a live slot a pair in E_C whose
// candidate says whether it is an original edge.
type pairTable struct {
	keys  []int64 // PairKey+1 of the slot's pair; 0 marks an empty slot
	pos   []int32 // the pair's position in E_C, or -1
	shift uint    // 64 - log2(len(keys)), for Fibonacci hashing
}

// reset empties the table with room for entries pairs at load <= 3/4.
func (t *pairTable) reset(entries int) {
	size := 16
	for 3*size < 4*entries {
		size <<= 1
	}
	if cap(t.keys) >= size {
		t.keys, t.pos = t.keys[:size], t.pos[:size]
		clear(t.keys)
	} else {
		t.keys, t.pos = make([]int64, size), make([]int32, size)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// slot returns the slot holding key, or the empty slot it would take.
func (t *pairTable) slot(key int64) int {
	k := key + 1
	mask := len(t.keys) - 1
	for i := int((uint64(k) * 0x9E3779B97F4A7C15) >> t.shift); ; i = (i + 1) & mask {
		if t.keys[i] == k || t.keys[i] == 0 {
			return i
		}
	}
}

// selectCandidates implements lines 6-12 of Algorithm 2: E_C starts as E;
// pairs drawn from Q×Q are removed from E_C when they are original edges
// and added when they are non-edges, until |E_C| = target. A removal
// moves the last candidate into the freed position. The returned list
// lives in s and is valid until s's next trial.
func selectCandidates(g *graph.Graph, aliasQ *randx.Alias, inH []bool, target int, rng *rand.Rand, s *trialScratch) ([]candidate, bool) {
	n := g.NumVertices()
	ec := slices.Grow(s.ec[:0], target+16)
	t := &s.table
	// |E_C| never exceeds target, so at most target-|E| non-edges are
	// added beyond those that replace removed edges: |E|+target bounds
	// the entries.
	t.reset(g.NumEdges() + target)
	g.ForEachEdge(func(u, v int) {
		key := graph.PairKey(u, v, n)
		i := t.slot(key)
		t.keys[i], t.pos[i] = key+1, int32(len(ec))
		ec = append(ec, candidate{u: int32(u), v: int32(v), slot: int32(i), isEdge: true})
	})
	// Give up after a generous number of draws; with c a small constant
	// and |E| << |V2| the loop normally ends after ~(c-1)|E| additions.
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
		i := t.slot(key)
		if t.keys[i] == 0 {
			// Line 11: add the non-edge.
			t.keys[i], t.pos[i] = key+1, int32(len(ec))
			ec = append(ec, candidate{u: int32(min(u, v)), v: int32(max(u, v)), slot: int32(i)})
		} else if pos := t.pos[i]; pos >= 0 && ec[pos].isEdge {
			// Line 10: remove the original edge still in E_C.
			last := len(ec) - 1
			moved := ec[last]
			ec[pos] = moved
			t.pos[moved.slot] = pos
			ec = ec[:last]
			t.pos[i] = -1
		}
	}
	s.ec = ec
	return ec, true
}

// assignProbabilities implements lines 13-19: redistribute σ over E_C in
// proportion to pair uniqueness (Eq. 7), draw perturbations r_e from
// R_σ(e) (or uniformly, for the q white-noise fraction), and convert
// them to edge probabilities. rng is the calling trial's private stream.
// The pairs are written into the columns of cols (reusing their
// capacity), ready for uncertain.Assemble.
func assignProbabilities(ec []candidate, uniq []float64, sigma float64, params Params, rng *rand.Rand, cols uncertain.Columns) uncertain.Columns {
	m := len(ec)
	pairU := slices.Grow(cols.PairU[:0], m)[:m]
	pairV := slices.Grow(cols.PairV[:0], m)[:m]
	pairP := slices.Grow(cols.PairP[:0], m)[:m]
	// U_σ(e) = (U_σ(P(u)) + U_σ(P(v))) / 2, staged in pairP; Eq. 7
	// scales so the mean of σ(e) over E_C equals σ.
	var total float64
	for i, c := range ec {
		pairU[i], pairV[i] = c.u, c.v
		pairP[i] = (uniq[c.u] + uniq[c.v]) / 2
		total += pairP[i]
	}
	for i, c := range ec {
		sigmaE := 0.0
		if total > 0 {
			sigmaE = sigma * float64(m) * pairP[i] / total
		}
		var re float64
		if params.Q > 0 && rng.Float64() < params.Q {
			re = rng.Float64()
		} else {
			re = mathx.SampleTruncNormal(sigmaE, rng)
		}
		p := re
		if c.isEdge {
			p = 1 - re
		}
		pairP[i] = p
	}
	cols.PairU, cols.PairV, cols.PairP = pairU, pairV, pairP
	return cols
}

// topUniqueSet marks the count vertices with the largest uniqueness
// scores (ties broken by lower index, making runs reproducible).
func topUniqueSet(uniq []float64, count int) []bool {
	set := make([]bool, len(uniq))
	if count <= 0 {
		return set
	}
	if count > len(uniq) {
		count = len(uniq)
	}
	idx := make([]int, len(uniq))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if uniq[idx[a]] != uniq[idx[b]] {
			return uniq[idx[a]] > uniq[idx[b]]
		}
		return idx[a] < idx[b]
	})
	for _, v := range idx[:count] {
		set[v] = true
	}
	return set
}
