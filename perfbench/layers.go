package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"uncertaingraph"
	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/anf"
	"uncertaingraph/internal/core"
	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/sampling"
	"uncertaingraph/internal/stats"
	"uncertaingraph/internal/ugbin"
	"uncertaingraph/internal/uncertain"
)

// The published obfuscation: Algorithm 1 at k=10, ε=0.01, t=5 trials
// per σ probe and a binary search down to δ=1e-4.
const (
	obfK      = 10
	obfEps    = 0.01
	obfTrials = 5
	obfDelta  = 1e-4
)

// dblpSmall returns the dblp stand-in at the small scale (2,264
// vertices, 6,973 edges). The dataset's own generator seed is fixed;
// the workload seed varies what is done with it.
func dblpSmall() (*graph.Graph, error) {
	spec, err := datasets.ByName("dblp")
	if err != nil {
		return nil, err
	}
	d, err := datasets.Generate(spec, datasets.ScaleSmall)
	if err != nil {
		return nil, err
	}
	return d.Graph, nil
}

// obfuscate runs one publish: a single-worker Obfuscate, so the work
// is a fixed function of the seed (speculative σ probes would make it
// depend on scheduling).
func obfuscate(ctx context.Context, g *graph.Graph, seed uint64, progress func(uncertaingraph.Progress)) (*core.Result, error) {
	return uncertaingraph.Obfuscate(ctx, g,
		uncertaingraph.WithK(obfK), uncertaingraph.WithEps(obfEps),
		uncertaingraph.WithObfuscation(uncertaingraph.ObfuscationParams{Trials: obfTrials, Delta: obfDelta}),
		uncertaingraph.WithWorkers(1), uncertaingraph.WithSeed(seed), uncertaingraph.WithProgress(progress))
}

// probeSpans returns a WithProgress callback that records one
// core.probe span per σ probe — at Workers=1 the probes run one after
// another, so the gap between two callbacks is one probe — or nil when
// the run is untraced. mark must be set to the call's start time.
func probeSpans(tr *tracer, parent, op int64, mark *time.Time) func(uncertaingraph.Progress) {
	if tr == nil {
		return nil
	}
	return func(uncertaingraph.Progress) {
		now := time.Now()
		tr.add(0, "core.probe", parent, op, *mark, now)
		*mark = now
	}
}

// replayCore times, on a finished obfuscation, the calls one σ probe
// makes into each layer: the σ-uniqueness scores, one adversary scan
// of the output (single worker, as inside a Workers=1 probe) and
// building the uncertain graph from its pairs.
func replayCore(tr *tracer, g *graph.Graph, res *core.Result, parent, op int64) error {
	if tr == nil {
		return nil
	}
	tr.count("core.probes", float64(res.Generations))
	tr.count("core.trials", float64(res.Trials))
	prop := core.DegreeProperty{}
	values := prop.Values(g)
	tr.time("core.uniqueness", parent, op, func() { core.UniquenessScores(values, prop.Distance, res.Sigma) })
	degrees := g.Degrees()
	tr.time("adversary.scan", parent, op, func() {
		adversary.NotObfuscatedFraction(adversary.UncertainModel{G: res.G, Workers: 1}, degrees, obfK)
	})
	pairs := res.G.Pairs()
	var err error
	tr.time("uncertain.build", parent, op, func() { _, err = uncertain.New(g.NumVertices(), pairs) })
	if err != nil {
		return fmt.Errorf("rebuilding the published graph: %w", err)
	}
	return nil
}

// estimateConfig is the estimate workload's configuration: 16 fixed
// worlds, HyperANF distances.
func estimateConfig(worlds int, seed uint64, workers int) sampling.Config {
	return sampling.Config{Worlds: worlds, Seed: int64(seed & math.MaxInt64), Workers: workers, Distances: sampling.DistanceANF}
}

func estimate(ctx context.Context, ug *uncertain.Graph, cfg sampling.Config) (*sampling.Report, error) {
	return uncertaingraph.EstimateStatistics(ctx, ug,
		uncertaingraph.WithWorlds(cfg.Worlds), uncertaingraph.WithSeed(uint64(cfg.Seed)),
		uncertaingraph.WithWorkers(cfg.Workers), uncertaingraph.WithDistances(cfg.Distances))
}

// replayWorlds re-samples the first `worlds` worlds of an estimation
// run and times each layer on them: sampling the world, the ten
// statistics, and separately the HyperANF distances and the clustering
// coefficient. It reports whether every replayed world reproduced the
// run's statistics bit for bit.
func replayWorlds(tr *tracer, ug *uncertain.Graph, cfg sampling.Config, rep *sampling.Report, worlds int, parent, op int64) bool {
	if tr == nil {
		return true
	}
	tr.count("sampling.worlds", float64(rep.WorldsUsed))
	seeds := make([]int64, cfg.Worlds)
	randx.FillWorldSeeds(seeds, randx.New(cfg.Seed))
	sampler := ug.NewSampler()
	sc := sampling.NewScratch(cfg)
	rng := randx.New(0)
	ok := true
	for i := 0; i < worlds && i < rep.WorldsUsed; i++ {
		rng.Seed(seeds[i])
		var world *graph.Graph
		tr.time("uncertain.sample", parent, op, func() { world = sampler.Sample(rng) })
		var vals [10]float64
		tr.time("sampling.scalars", parent, op, func() { sampling.ScalarsInto(world, cfg, seeds[i], sc, &vals) })
		tr.time("anf.distances", parent, op, func() { anf.DistanceDistribution(world, anf.Options{Bits: cfg.ANFBits, Seed: uint64(seeds[i])}) })
		tr.time("stats.clustering", parent, op, func() { stats.ClusteringCoefficient(world) })
		for s, name := range sampling.StatNames {
			if math.Float64bits(vals[s]) != math.Float64bits(rep.Samples[name][i]) {
				ok = false
			}
		}
	}
	return ok
}

// samplingProbeWorlds is the size of the estimation a traced run makes
// on a workload whose ops do not estimate.
const samplingProbeWorlds = 4

// samplingProbe runs one small estimation on ug and replays its worlds,
// so every traced run reports the sampling layers.
func samplingProbe(e *env, ug *uncertain.Graph) (bool, error) {
	cfg := estimateConfig(samplingProbeWorlds, uint64(derive(e.seed, tagSamplingProbe)), estimateWorkers)
	rep, err := estimate(e.ctx, ug, cfg)
	if err != nil {
		return false, fmt.Errorf("sampling probe: %w", err)
	}
	return replayWorlds(e.tr, ug, cfg, rep, samplingProbeWorlds, 0, 0), nil
}

// writeLoad writes ug as a .ugb file and maps it back, checking that
// the round trip keeps the graph.
func writeLoad(tr *tracer, ug *uncertain.Graph, path string) error {
	var err error
	tr.time("ugbin.write", 0, 0, func() { err = ugbin.WriteFile(path, ug) })
	if err != nil {
		return err
	}
	var back *uncertain.Graph
	tr.time("ugbin.load", 0, 0, func() { back, err = ugbin.Load(path) })
	if err != nil {
		return err
	}
	if !samePairs(ug, back) {
		return fmt.Errorf("ugbin round trip of %s changed the graph", path)
	}
	return nil
}

// ugbinProbe times three .ugb write/load round trips of ug, for
// workloads whose set-up does not write one.
func ugbinProbe(e *env, ug *uncertain.Graph) error {
	for i := 0; i < 3; i++ {
		if err := writeLoad(e.tr, ug, filepath.Join(e.workdir, fmt.Sprintf("probe-%d.ugb", i))); err != nil {
			return err
		}
	}
	return nil
}

// samePairs reports whether two uncertain graphs hold the same pairs
// with bit-identical probabilities.
func samePairs(a, b *uncertain.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumPairs() != b.NumPairs() {
		return false
	}
	for i := 0; i < a.NumPairs(); i++ {
		pa, pb := a.PairAt(i), b.PairAt(i)
		if pa.U != pb.U || pa.V != pb.V || math.Float64bits(pa.P) != math.Float64bits(pb.P) {
			return false
		}
	}
	return true
}
