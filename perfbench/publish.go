package main

import (
	"time"

	"uncertaingraph"
	"uncertaingraph/internal/core"
	"uncertaingraph/internal/graph"
)

// publishRef is what every op with one seed must repeat exactly.
type publishRef struct {
	sigma, epsTilde     float64
	generations, trials int
}

// runPublish is the publish workload: one caller, each op one
// Obfuscate call on the dblp stand-in, cycling through a fixed list of
// seeds derived from the workload seed.
func runPublish(e *env) (*outcome, error) {
	var g *graph.Graph
	var degrees []int
	setups, err := repeatSetup(3, 50, 300*time.Millisecond, func(int) (time.Duration, error) {
		t0 := time.Now()
		var err error
		if g, err = dblpSmall(); err != nil {
			return 0, err
		}
		degrees = g.Degrees()
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}

	seeds := publishSeeds(e.seed)
	refs := make([]*publishRef, len(seeds))
	var last *core.Result
	ops := closedLoop(e, 1, 0, 0, len(seeds), e.window, func(r *opRecord) {
		si := r.index % len(seeds)
		var res *core.Result
		var err error
		var mark time.Time
		var progress func(uncertaingraph.Progress)
		if r.traced {
			progress = probeSpans(e.tr, r.id, r.id, &mark)
		}
		r.measure(func() {
			mark = time.Now()
			res, err = obfuscate(e.ctx, g, seeds[si], progress)
		})
		if err != nil {
			return
		}
		got := publishRef{res.Sigma, res.EpsTilde, res.Generations, res.Trials}
		if refs[si] == nil {
			refs[si] = &got
		}
		r.ok = *refs[si] == got &&
			uncertaingraph.VerifyObfuscation(res.G, degrees, obfK, obfEps)
		if r.traced && replayCore(e.tr, g, res, r.id, r.id) != nil {
			r.ok = false
		}
		last = res
	})
	o := &outcome{setups: setups, ops: ops, rate: ops}
	if e.tr != nil && last != nil {
		if err := probeOffPath(e, o, last.G, probeSampling|probeUgbin|probeServing); err != nil {
			return nil, err
		}
	}
	return o, nil
}
