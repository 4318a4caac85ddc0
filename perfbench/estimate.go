package main

import (
	"fmt"
	"math"
	"time"

	"uncertaingraph/internal/sampling"
	"uncertaingraph/internal/uncertain"
)

const (
	// estimateWorlds is the fixed world count of one estimate op.
	estimateWorlds = 16
	// estimateWorkers is the op's worker count; the references are
	// computed with one worker, which the determinism contract says
	// gives bit-identical means.
	estimateWorkers = 2
	// estimateReplayWorlds is how many of a traced op's worlds are
	// replayed layer by layer.
	estimateReplayWorlds = 4
)

// setupObfuscation is the set-up shared by estimate and the serving
// workloads: the dblp stand-in and its obfuscation under the set-up
// seed. In a traced run the obfuscation's probes are traced and its
// core layers replayed, outside the returned set-up time.
func setupObfuscation(e *env) (*uncertain.Graph, time.Duration, error) {
	t0 := time.Now()
	g, err := dblpSmall()
	if err != nil {
		return nil, 0, err
	}
	var mark time.Time
	parent := e.tr.id()
	progress := probeSpans(e.tr, parent, 0, &mark)
	obfStart := time.Now()
	mark = obfStart
	res, err := obfuscate(e.ctx, g, setupSeed, progress)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up obfuscation: %w", err)
	}
	e.tr.add(parent, "setup.obfuscate", 0, 0, obfStart, time.Now())
	d := time.Since(t0)
	if err := replayCore(e.tr, g, res, parent, 0); err != nil {
		return nil, 0, err
	}
	return res.G, d, nil
}

// runEstimate is the estimate workload: one caller, each op one
// EstimateStatistics call over 16 worlds of the set-up obfuscation,
// cycling through a fixed list of seeds.
func runEstimate(e *env) (*outcome, error) {
	var ug *uncertain.Graph
	setups, err := repeatSetup(3, 10, 0, func(int) (time.Duration, error) {
		g, d, err := setupObfuscation(e)
		ug = g
		return d, err
	})
	if err != nil {
		return nil, err
	}

	seeds := estimateSeeds(e.seed)
	refs := make([]*sampling.Report, len(seeds))
	for i, s := range seeds {
		if refs[i], err = estimate(e.ctx, ug, estimateConfig(estimateWorlds, s, 1)); err != nil {
			return nil, fmt.Errorf("estimate reference: %w", err)
		}
	}

	ops := closedLoop(e, 1, 0, 0, len(seeds), e.window, func(r *opRecord) {
		si := r.index % len(seeds)
		cfg := estimateConfig(estimateWorlds, seeds[si], estimateWorkers)
		var rep *sampling.Report
		var err error
		r.measure(func() { rep, err = estimate(e.ctx, ug, cfg) })
		if err != nil {
			return
		}
		r.ok = rep.WorldsUsed == estimateWorlds && sameMeans(refs[si], rep)
		if r.traced && !replayWorlds(e.tr, ug, cfg, rep, estimateReplayWorlds, r.id, r.id) {
			r.ok = false
		}
	})
	o := &outcome{setups: setups, ops: ops, rate: ops}
	if e.tr != nil {
		if err := probeOffPath(e, o, ug, probeUgbin|probeServing); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sameMeans reports whether two reports' statistic means are
// bit-identical.
func sameMeans(a, b *sampling.Report) bool {
	for _, name := range sampling.StatNames {
		if math.Float64bits(a.Mean(name)) != math.Float64bits(b.Mean(name)) {
			return false
		}
	}
	return true
}
